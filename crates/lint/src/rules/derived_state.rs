//! `derived-state-persistence`: derived caches never reach the codec.
//!
//! The persistence invariant (see ARCHITECTURE.md, "What is persisted vs
//! derived"): a saved model document holds only the *source of truth* — tree
//! structures, hyperparameters, feature metadata. Everything derived for
//! speed (the columnar training cache with its `presorted_rows`, the
//! flattened `FlatForest` inference representation built by
//! `compile_groups`) is rebuilt on load, never serialized. Persisting
//! derived state silently couples the wire format to internal layout and
//! rots the moment the cache changes shape.
//!
//! The rule scans two territories for derived-cache identifiers:
//!
//! 1. **all of `hmd_codec`'s library code** — the codec must be wholly
//!    ignorant of derived representations;
//! 2. **persistence functions elsewhere** (`to_json`, `decode`,
//!    `from_json`, `to_saved_json`, `save`, `load`) — the identifiers may
//!    exist in the crate, but not inside the encode/decode paths. (A
//!    `decode` *rebuilding* a cache via a constructor like `from_trees` is
//!    fine and matches the current code; naming the cache fields directly
//!    is not.)
//!
//! Both identifier tokens and string literals (JSON keys!) are checked.

use super::Rule;
use crate::diagnostics::Diagnostic;
use crate::scopes::fn_bodies;
use crate::source::SourceFile;
use crate::tokens::TokenKind;
use crate::workspace::{FileContext, FileKind};

/// Identifiers naming derived-cache state.
const DERIVED: &[&str] = &[
    "columnar",
    "presorted",
    "presorted_rows",
    "flat",
    "FlatForest",
    "FlatTree",
    "FlatForestBuilder",
    "compile_groups",
    "append_flat_group",
];

/// Function names whose bodies are persistence paths.
const PERSIST_FNS: &[&str] = &[
    "to_json",
    "decode",
    "from_json",
    "to_saved_json",
    "save",
    "load",
];

/// See the module docs.
pub struct DerivedStatePersistence;

impl Rule for DerivedStatePersistence {
    fn name(&self) -> &'static str {
        "derived-state-persistence"
    }

    fn applies(&self, ctx: &FileContext) -> bool {
        ctx.kind == FileKind::Lib && !ctx.is_shim
    }

    fn check(&self, file: &SourceFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
        if ctx.crate_name == "codec" {
            // The whole crate is a persistence path.
            for i in 0..file.tokens.len() {
                self.check_token(file, i, "the codec crate", out);
            }
            return;
        }
        for body in fn_bodies(&file.tokens) {
            if !PERSIST_FNS.contains(&body.name.as_str()) {
                continue;
            }
            if file.in_test_span(file.tokens[body.body.0].line) {
                continue;
            }
            let context = format!("persistence fn `{}`", body.name);
            for i in body.body.0..=body.body.1 {
                self.check_token(file, i, &context, out);
            }
        }
    }
}

impl DerivedStatePersistence {
    fn check_token(&self, file: &SourceFile, i: usize, context: &str, out: &mut Vec<Diagnostic>) {
        let tok = &file.tokens[i];
        if file.in_test_span(tok.line) {
            return;
        }
        let hit = match tok.kind {
            TokenKind::Ident => DERIVED
                .contains(&tok.text.as_str())
                .then(|| tok.text.clone()),
            TokenKind::Str => DERIVED
                .iter()
                .find(|name| contains_word(&tok.text, name))
                .map(|name| (*name).to_string()),
            _ => None,
        };
        if let Some(name) = hit {
            out.push(Diagnostic::new(
                &file.rel_path,
                tok.line,
                self.name(),
                format!(
                    "derived-cache identifier `{name}` in {context}: derived state \
                     (columnar/presorted caches, flat forests) is rebuilt on load, \
                     never persisted — keep it out of encode/decode paths"
                ),
            ));
        }
    }
}

/// True when `word` occurs in `text` delimited by non-identifier characters
/// (so the JSON key `"presorted_rows"` hits but `"inflate"` does not hit
/// `flat`).
fn contains_word(text: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(idx) = text[start..].find(word) {
        let at = start + idx;
        let before_ok = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = after >= text.len()
            || !text[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::FileContext;
    use crate::workspace::FileKind;

    #[test]
    fn codec_crate_is_scanned_wholesale() {
        let file = SourceFile::parse(
            "crates/codec/src/model.rs",
            "fn helper() { let x = doc.presorted_rows; }\n",
        );
        let ctx = FileContext::new("codec", FileKind::Lib, false);
        let mut out = Vec::new();
        DerivedStatePersistence.check(&file, &ctx, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn non_persistence_fns_elsewhere_are_free_to_use_caches() {
        let file = SourceFile::parse(
            "crates/ml/src/forest.rs",
            "fn fit() { let flat = build(); }\nfn to_json(&self) -> String { render(self) }\n",
        );
        let ctx = FileContext::new("ml", FileKind::Lib, false);
        let mut out = Vec::new();
        DerivedStatePersistence.check(&file, &ctx, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn persistence_fn_naming_a_cache_is_flagged_even_via_json_key() {
        let file = SourceFile::parse(
            "crates/ml/src/forest.rs",
            "fn to_json(&self) -> String { format(\"{\\\"flat\\\": 1}\") }\n",
        );
        let ctx = FileContext::new("ml", FileKind::Lib, false);
        let mut out = Vec::new();
        DerivedStatePersistence.check(&file, &ctx, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn word_boundaries_prevent_substring_hits() {
        assert!(contains_word("{\"presorted_rows\": []}", "presorted_rows"));
        assert!(!contains_word("inflate the buffer", "flat"));
        assert!(!contains_word("conflated", "flat"));
        assert!(contains_word("a flat list", "flat"));
    }
}
