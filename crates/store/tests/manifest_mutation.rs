//! Mutation of the one JSON decoder left in the production crates,
//! `RunManifest::from_json_line`, which `Store::open` feeds every line of
//! `manifest.jsonl`: every damaged copy of a valid line must decode to
//! `Ok` or `Err` — never a panic.
//!
//! Two families, each exhaustive over one valid line:
//!
//! * every truncation, where every strict prefix must be `Err`;
//! * every single-byte substitution drawn from `[ ] { } " : ,`, the
//!   digits, `.`, `-`, `e`, a backslash and one non-ASCII character. (A
//!   lone non-ASCII byte is not a `&str`: `Store::open` reads the manifest
//!   with `read_to_string`, which refuses invalid UTF-8 before any line
//!   reaches the decoder.)
//!
//! A damaged line that still decodes must re-encode to a line that decodes
//! to the same entry.

use dasr_store::{RunId, RunManifest, RunMeta};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SUBSTITUTES: &str = "[]{}\":,0123456789.-e\\é";

/// Decodes `line`, failing with `what` if the decoder panics.
fn decode(what: &str, line: &str) -> Result<RunManifest, String> {
    catch_unwind(AssertUnwindSafe(|| RunManifest::from_json_line(line)))
        .unwrap_or_else(|_| panic!("{what} panicked the decoder; input: {line:?}"))
}

fn valid_line() -> String {
    // Escaped characters in the strings give the line backslashes to damage.
    let entry = RunManifest {
        run: RunId(3),
        meta: RunMeta::new("auto", "cpu\"io", "flat\t7", u64::MAX - 1).fleet(64, 1440),
        samples: 92_160,
        events: 1234,
    };
    let line = entry.to_json_line();
    assert!(line.is_ascii(), "{line}");
    assert_eq!(RunManifest::from_json_line(&line), Ok(entry));
    line
}

#[test]
fn every_strict_prefix_is_an_error() {
    let line = valid_line();
    for cut in 0..line.len() {
        let prefix = &line[..cut];
        assert!(
            decode(&format!("truncation to {cut} bytes"), prefix).is_err(),
            "a strict prefix decoded: {prefix:?}"
        );
    }
}

#[test]
fn every_substitution_decodes_or_errs() {
    let line = valid_line();
    let mut still_decodes = 0;
    for at in 0..line.len() {
        for sub in SUBSTITUTES.chars() {
            let mut bad = line.clone();
            bad.replace_range(at..at + 1, sub.encode_utf8(&mut [0; 4]));
            if bad == line {
                continue;
            }
            if let Ok(entry) = decode(&format!("byte {at} = {sub:?}"), &bad) {
                assert_eq!(
                    RunManifest::from_json_line(&entry.to_json_line()),
                    Ok(entry),
                    "{bad}"
                );
                still_decodes += 1;
            }
        }
    }
    // Digit and string substitutions keep a well-formed line, so the
    // re-encoding check above does run.
    assert!(still_decodes > 0);
}
