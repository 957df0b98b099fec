//! Seeded mutations of valid request payloads and random frame headers,
//! decoded one by one.
//!
//! Payloads of every request kind are damaged at the byte level (a flipped
//! bit, a replaced byte, a truncation) and in their numbers (a digit
//! replaced, deleted or inserted, a sign, point or exponent added). Every
//! mutant goes through `Request::decode`, usually under its own kind: it
//! must never panic, and an accepted request must re-encode to a payload
//! that decodes to the same bits. Random 8-byte headers go through
//! `FrameHeader::parse`, which must never panic and must re-encode what it
//! accepts byte for byte. One FNV-1a digest over each mutant's index,
//! verdict (error code, or the re-encoded payload) and each header's
//! outcome pins exactly which payloads decode and what they re-encode to,
//! so it also pins the codec's number printers on the odd floats the digit
//! edits make.

use hmd_codec::frame::{FrameHeader, MAGIC};
use hmd_serve::net::wire::{FrameKind, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Payload mutants; as many random headers.
const MUTANTS: usize = 4000;

/// The digest of every mutant's index, kind, verdict and re-encoded bytes,
/// and of every header's outcome.
const PINNED_DIGEST: u64 = 0x2984_8747_7909_480c;

/// Bytes a replacement draws from: JSON's structural characters, digits,
/// number signs and literal letters.
const ALPHABET: &[u8] = b"{}[]:,\"\\ 0123456789-+.eEtrufalsnN";

/// Floats whose shortest text is long, tied, subnormal, huge or tagged.
fn odd_floats() -> Vec<f64> {
    vec![
        0.1,
        -0.0,
        0.30000000000000004,
        0.123046875,
        1.0 / 3.0,
        -2.5e-7,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        1e21,
        (1u64 << 50) as f64 + 0.25,
        9007199254740994.0,
        -123456.789,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

/// One valid request of every kind, and the payloads they encode to.
fn payloads() -> Vec<(FrameKind, String)> {
    let floats = odd_floats();
    let requests = [
        Request::ScoreRow {
            endpoint: "dvfs".into(),
            key: Some(7),
            row: floats.clone(),
        },
        Request::ScoreRow {
            endpoint: "hpc".into(),
            key: None,
            row: vec![0.0, 1.5, 0.998046875, 42.0, -3.75e-3],
        },
        Request::ScoreBatch {
            endpoint: "dvfs".into(),
            rows: vec![floats[..8].to_vec(), floats[8..].to_vec()],
        },
        Request::Flush {
            endpoint: "dvfs".into(),
        },
        Request::Deploy {
            endpoint: "dvfs".into(),
            document: "{\"model\": [1.5, -0.0], \"name\": \"tab\\tquote\\\"\"}".into(),
        },
        Request::Rollback {
            endpoint: "dvfs".into(),
        },
        Request::Health {
            endpoint: "dvfs".into(),
        },
    ];
    requests
        .iter()
        .map(|request| (request.kind(), request.to_json().to_string()))
        .collect()
}

/// Damages `payload` at the byte level or in one of its numbers.
fn mutate(payload: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    let at = rng.gen_range(0..bytes.len());
    let digits: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit())
        .collect();
    // A payload without numbers takes its number edits at `at`.
    let digit_at = match digits.len() {
        0 => at,
        n => digits[rng.gen_range(0..n)],
    };
    match rng.gen_range(0..7usize) {
        0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        1 => bytes[at] = ALPHABET[rng.gen_range(0..ALPHABET.len())],
        2 => bytes.truncate(at),
        3 => bytes[digit_at] = b'0' + rng.gen_range(0..10u8),
        4 => {
            bytes.remove(digit_at);
        }
        5 => {
            let run = rng.gen_range(1..6usize);
            let inserted: Vec<u8> = (0..run).map(|_| b'0' + rng.gen_range(0..10u8)).collect();
            bytes.splice(digit_at..digit_at, inserted);
        }
        _ => {
            let edits: [&[u8]; 6] = [b"-", b".", b"e", b"e-3", b"E+21", b"e400"];
            let edit = edits[rng.gen_range(0..edits.len())];
            bytes.splice(digit_at..digit_at, edit.iter().copied());
        }
    }
    bytes
}

/// A request's floats, as bits.
fn float_bits(request: &Request) -> Vec<u64> {
    match request {
        Request::ScoreRow { row, .. } => row.iter().map(|v| v.to_bits()).collect(),
        Request::ScoreBatch { rows, .. } => rows.iter().flatten().map(|v| v.to_bits()).collect(),
        _ => Vec::new(),
    }
}

/// 64-bit FNV-1a, folded one slice at a time.
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn mutated_payloads_and_headers_never_panic_and_decode_exactly_the_pinned_set() {
    let payloads = payloads();
    let request_kinds: Vec<FrameKind> = payloads.iter().map(|(kind, _)| *kind).collect();
    let mut rng = StdRng::seed_from_u64(2021);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut accepted = [0usize; 2];
    for index in 0..MUTANTS {
        let (kind, original) = &payloads[rng.gen_range(0..payloads.len())];
        let mutant = mutate(original.as_bytes(), &mut rng);
        // One mutant in eight is read under another kind's schema, or as a
        // kind that is no request at all.
        let kind = match rng.gen_range(0..16usize) {
            0 => request_kinds[rng.gen_range(0..request_kinds.len())],
            1 => FrameKind::ScoreRowReply,
            _ => *kind,
        };
        let decoded = catch_unwind(AssertUnwindSafe(|| Request::decode(kind, &mutant)))
            .unwrap_or_else(|_| panic!("mutant {index} panicked: {mutant:?}"));
        digest.add(&(index as u64).to_le_bytes());
        digest.add(&[kind.as_u8()]);
        match decoded {
            Ok(request) => {
                accepted[usize::from(kind == FrameKind::ScoreRow)] += 1;
                let encoded = request.to_json().to_string();
                let again = Request::decode(kind, encoded.as_bytes())
                    .unwrap_or_else(|e| panic!("mutant {index} re-encoded to {encoded}: {e}"));
                assert_eq!(float_bits(&again), float_bits(&request), "{encoded}");
                assert_eq!(again.to_json().to_string(), encoded);
                digest.add(&[1]);
                digest.add(encoded.as_bytes());
            }
            Err(error) => {
                digest.add(&[0]);
                digest.add(&error.code().unwrap_or(0).to_le_bytes());
            }
        }
    }
    let mut headers_accepted = 0;
    for index in 0..MUTANTS {
        let mut header = rng.gen::<u64>().to_le_bytes();
        if index % 2 == 0 {
            header[..2].copy_from_slice(&MAGIC);
        }
        let parsed = catch_unwind(|| FrameHeader::parse(&header))
            .unwrap_or_else(|_| panic!("header {header:?} panicked"));
        match parsed {
            Ok(parsed) => {
                headers_accepted += 1;
                assert_eq!(parsed.encode(), header);
                digest.add(&[1, parsed.version, parsed.kind]);
                digest.add(&parsed.len.to_le_bytes());
            }
            Err(_) => digest.add(&[0]),
        }
    }
    assert!(
        accepted.iter().all(|&count| count > 0) && accepted.iter().sum::<usize>() < MUTANTS,
        "ScoreRow and other kinds both accept some mutants, and some are rejected: {accepted:?}"
    );
    assert!(headers_accepted >= MUTANTS / 2, "{headers_accepted}");
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "digest {:#018x} ({accepted:?} requests, {headers_accepted} headers accepted)",
        digest.0
    );
}
