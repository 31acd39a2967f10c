//! The journal line format: checksummed JSON-lines records.
//!
//! Every line is a self-contained JSON object with a fixed layout,
//! produced only by [`encode_line`]:
//!
//! ```text
//! {"sum":"<16 hex digits>","key":"<key>","rec":<payload JSON>}
//! ```
//!
//! `sum` is the FNV-1a 64-bit hash of the *exact bytes* of the line after
//! the `"sum":"…",` prefix and before the closing brace — i.e. of
//! `"key":"<key>","rec":<payload>`. Because the writer controls the byte
//! layout, [`decode_line`] can verify the checksum without re-serializing
//! the payload (re-encoding parsed JSON is not guaranteed to reproduce
//! the original bytes). A line whose prefix, suffix, checksum, or UTF-8
//! is damaged in any way is rejected as torn.
//!
//! Keys are restricted to graphic ASCII without `"` or `\` so they embed
//! verbatim in the line; payloads are arbitrary single-line JSON (the
//! `serde_json` encoder never emits raw newlines — they are escaped
//! inside strings).

use serde::{Deserialize, Serialize};

/// Format tag recorded in every journal header.
pub const FORMAT_V1: &str = "mps-journal/v1";

/// Reserved key of the header line (always the first line of a journal).
pub const HEADER_KEY: &str = "mps-journal/header";

const SUM_PREFIX: &str = "{\"sum\":\"";
const KEY_PREFIX: &str = "\"key\":\"";
const REC_SEP: &str = "\",\"rec\":";

/// FNV-1a 64-bit hash — the per-record checksum.
///
/// Not cryptographic: it guards against torn writes and bit rot, not
/// adversaries, and keeps the journal dependency-free.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV64_OFFSET, |h, &b| fnv64_step(h, b))
}

/// The FNV-1a 64-bit state before any byte: [`fnv64`] of a byte string
/// is its bytes folded in order by [`fnv64_step`], starting here. Lets a
/// caller checksum bytes in a loop that is walking them anyway.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one byte into an FNV-1a 64-bit state.
pub fn fnv64_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// True when `key` can embed verbatim in a journal line.
pub fn key_is_valid(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\')
}

/// Encodes one journal line (without the trailing newline).
pub fn encode_line(key: &str, payload_json: &str) -> Result<String, crate::JournalError> {
    if !key_is_valid(key) {
        return Err(crate::JournalError::BadKey {
            key: key.to_string(),
        });
    }
    debug_assert!(
        !payload_json.contains('\n'),
        "payloads must be single-line JSON"
    );
    let body = format!("{KEY_PREFIX}{key}{REC_SEP}{payload_json}}}");
    // `body` carries the closing brace; checksum covers everything after
    // the sum prefix except that final brace.
    let sum = fnv64(&body.as_bytes()[..body.len() - 1]);
    Ok(format!("{SUM_PREFIX}{sum:016x}\",{body}"))
}

/// Decodes one journal line into `(key, payload_json)`.
///
/// The error string is a human-readable reason; any failure means the
/// line is torn or tampered with and must not be trusted.
pub fn decode_line(line: &str) -> Result<(String, String), String> {
    let rest = line
        .strip_prefix(SUM_PREFIX)
        .ok_or("missing checksum prefix")?;
    let sum_hex = rest.get(..16).ok_or("truncated checksum")?;
    if !sum_hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err("malformed checksum".to_string());
    }
    let declared = u64::from_str_radix(sum_hex, 16).map_err(|e| e.to_string())?;
    let body = rest
        .get(16..)
        .and_then(|s| s.strip_prefix("\","))
        .ok_or("malformed checksum suffix")?;
    let body = body.strip_suffix('}').ok_or("missing closing brace")?;
    if fnv64(body.as_bytes()) != declared {
        return Err("checksum mismatch".to_string());
    }
    let body = body.strip_prefix(KEY_PREFIX).ok_or("missing key field")?;
    let sep = body.find(REC_SEP).ok_or("missing rec field")?;
    let key = &body[..sep];
    if !key_is_valid(key) {
        return Err("invalid key".to_string());
    }
    let payload = &body[sep + REC_SEP.len()..];
    Ok((key.to_string(), payload.to_string()))
}

/// The first record of every journal: pins the campaign configuration so
/// a resume under different parameters is rejected instead of silently
/// mixing incompatible results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Journal format tag ([`FORMAT_V1`]).
    pub format: String,
    /// Human-readable campaign id (e.g. `paper-grid[..8]`).
    pub campaign: String,
    /// Base seed of the campaign's noise streams.
    pub seed: u64,
    /// Testbed repeats folded into each record (the key's repeat block).
    pub repeats: u64,
    /// Number of records a complete campaign will contain.
    pub cells_expected: u64,
    /// Digest of configuration not captured by the fields above
    /// (fault plan, exec policy, …).
    pub config_digest: String,
    /// Isolation mode the campaign was started under (`inproc` or
    /// `process`). Informational: an empty value (journals written before
    /// this field existed) means `inproc`, and `check_matches` deliberately
    /// ignores it so a campaign that crashed on a poison cell in-process
    /// can be *resumed* under `--isolation process` to quarantine it.
    #[serde(default)]
    pub isolation: String,
    /// For service journals (`mps-serve`): the verbatim JSON of the work
    /// request this journal belongs to, so a restarted daemon can
    /// reconstruct and finish in-flight work from the journal alone.
    /// Empty for grid campaigns (journals written before this field
    /// existed parse as empty), and compared by `check_matches` — a
    /// journal can never be resumed under a *different* request.
    #[serde(default)]
    pub request: String,
}

impl JournalHeader {
    /// Field-by-field compatibility check, with a typed error naming the
    /// first mismatching field.
    pub fn check_matches(&self, expected: &JournalHeader) -> Result<(), crate::JournalError> {
        let fields: [(&'static str, &str, &str); 2] = [
            ("format", expected.format.as_str(), self.format.as_str()),
            (
                "campaign",
                expected.campaign.as_str(),
                self.campaign.as_str(),
            ),
        ];
        for (field, want, got) in fields {
            if want != got {
                return Err(crate::JournalError::HeaderMismatch {
                    field,
                    expected: want.to_string(),
                    found: got.to_string(),
                });
            }
        }
        let nums: [(&'static str, u64, u64); 3] = [
            ("seed", expected.seed, self.seed),
            ("repeats", expected.repeats, self.repeats),
            (
                "cells_expected",
                expected.cells_expected,
                self.cells_expected,
            ),
        ];
        for (field, want, got) in nums {
            if want != got {
                return Err(crate::JournalError::HeaderMismatch {
                    field,
                    expected: want.to_string(),
                    found: got.to_string(),
                });
            }
        }
        if self.config_digest != expected.config_digest {
            return Err(crate::JournalError::HeaderMismatch {
                field: "config_digest",
                expected: expected.config_digest.clone(),
                found: self.config_digest.clone(),
            });
        }
        if self.request != expected.request {
            return Err(crate::JournalError::HeaderMismatch {
                field: "request",
                expected: expected.request.clone(),
                found: self.request.clone(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn encode_decode_round_trip() {
        let payload = r#"{"x":1.5,"s":"hi \"there\"","v":[1,2,3]}"#;
        let line = encode_line("dag-1/n2000/analytic/HCPA/r3", payload).unwrap();
        let (key, back) = decode_line(&line).unwrap();
        assert_eq!(key, "dag-1/n2000/analytic/HCPA/r3");
        assert_eq!(back, payload);
        // The line itself is one valid JSON object.
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn bad_keys_are_rejected_at_encode_time() {
        for key in ["", "has space", "quote\"inside", "back\\slash", "newline\n"] {
            assert!(
                matches!(
                    encode_line(key, "{}"),
                    Err(crate::JournalError::BadKey { .. })
                ),
                "key {key:?} must be rejected"
            );
        }
    }

    #[test]
    fn every_single_char_substitution_is_detected() {
        let line = encode_line("k1", r#"{"v":42,"m":3.25}"#).unwrap();
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            let repl = if bytes[i] == b'0' { b'1' } else { b'0' };
            if bytes[i] == repl {
                continue;
            }
            bytes[i] = repl;
            let s = String::from_utf8(bytes).unwrap();
            assert!(
                decode_line(&s).is_err(),
                "substitution at byte {i} went undetected: {s}"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let line = encode_line("k1", r#"{"v":1}"#).unwrap();
        for cut in 0..line.len() {
            assert!(
                decode_line(&line[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn header_mismatch_names_the_field() {
        let a = JournalHeader {
            format: FORMAT_V1.to_string(),
            campaign: "paper-grid".to_string(),
            seed: 7,
            repeats: 3,
            cells_expected: 324,
            config_digest: "0".to_string(),
            isolation: "inproc".to_string(),
            request: String::new(),
        };
        let mut b = a.clone();
        assert!(a.check_matches(&b).is_ok());
        b.seed = 8;
        match a.check_matches(&b).unwrap_err() {
            crate::JournalError::HeaderMismatch { field, .. } => assert_eq!(field, "seed"),
            other => panic!("unexpected error {other:?}"),
        }
        let mut c = a.clone();
        c.config_digest = "1".to_string();
        assert!(matches!(
            c.check_matches(&a),
            Err(crate::JournalError::HeaderMismatch {
                field: "config_digest",
                ..
            })
        ));
    }

    #[test]
    fn header_serde_round_trip() {
        let h = JournalHeader {
            format: FORMAT_V1.to_string(),
            campaign: "paper-grid[..4]".to_string(),
            seed: 2011,
            repeats: 1,
            cells_expected: 24,
            config_digest: "deadbeef".to_string(),
            isolation: "process".to_string(),
            request: r#"{"type":"SubsetGrid","take":2}"#.to_string(),
        };
        let json = serde_json::to_string(&h).unwrap();
        let back: JournalHeader = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
