use hmd_codec::{CodecError, Json, JsonCodec, Parser};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Binary classification label used by every hardware malware detector in the
/// workspace.
///
/// The numeric encoding follows the convention of the paper's datasets:
/// benign = 0, malware = 1 (malware is the "positive" class for
/// precision/recall/F1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Label {
    /// A benign workload.
    Benign,
    /// A malicious workload.
    Malware,
}

impl Label {
    /// Numeric class index (`0` for benign, `1` for malware).
    ///
    /// ```
    /// use hmd_data::Label;
    /// assert_eq!(Label::Malware.index(), 1);
    /// ```
    pub fn index(self) -> usize {
        match self {
            Label::Benign => 0,
            Label::Malware => 1,
        }
    }

    /// Signed encoding (`-1.0` for benign, `+1.0` for malware) used by
    /// margin-based learners such as the linear SVM.
    pub fn signed(self) -> f64 {
        match self {
            Label::Benign => -1.0,
            Label::Malware => 1.0,
        }
    }

    /// Builds a label from a numeric class index.
    ///
    /// Any non-zero index maps to [`Label::Malware`], mirroring the paper's
    /// 0/1 encoding.
    pub fn from_index(index: usize) -> Label {
        if index == 0 {
            Label::Benign
        } else {
            Label::Malware
        }
    }

    /// `true` when the label is [`Label::Malware`].
    pub fn is_malware(self) -> bool {
        matches!(self, Label::Malware)
    }

    /// All label values, in class-index order.
    pub fn all() -> [Label; 2] {
        [Label::Benign, Label::Malware]
    }

    /// Number of classes in the binary task.
    pub const NUM_CLASSES: usize = 2;
}

impl JsonCodec for Label {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Label::Benign => "benign",
                Label::Malware => "malware",
            }
            .to_string(),
        )
    }

    fn decode(parser: &mut Parser<'_>) -> Result<Label, CodecError> {
        match &*parser.string()? {
            "benign" => Ok(Label::Benign),
            "malware" => Ok(Label::Malware),
            other => Err(CodecError::new(format!("unknown label `{other}`"))),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Benign => write!(f, "benign"),
            Label::Malware => write!(f, "malware"),
        }
    }
}

impl From<bool> for Label {
    /// `true` maps to malware, `false` to benign.
    fn from(is_malware: bool) -> Self {
        if is_malware {
            Label::Malware
        } else {
            Label::Benign
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for label in Label::all() {
            assert_eq!(Label::from_index(label.index()), label);
        }
    }

    #[test]
    fn signed_encoding_matches_class() {
        assert_eq!(Label::Benign.signed(), -1.0);
        assert_eq!(Label::Malware.signed(), 1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Label::Benign.to_string(), "benign");
        assert_eq!(Label::Malware.to_string(), "malware");
    }

    #[test]
    fn from_bool() {
        assert_eq!(Label::from(true), Label::Malware);
        assert_eq!(Label::from(false), Label::Benign);
    }

    #[test]
    fn nonzero_index_is_malware() {
        assert_eq!(Label::from_index(7), Label::Malware);
    }
}
