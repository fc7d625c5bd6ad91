//! The paper's evaluation as a golden transcript: every table and figure
//! `examples/paper_tables` prints at its default scale (0.01) must equal
//! `tests/golden/paper_tables.md` byte for byte, so a count that drifts
//! anywhere in Tables 1–8 or Figures 2, 8–10 fails here.
//! `tests/paper_claims.rs` asserts the paper's shapes; this file pins the
//! numbers.

#[path = "../examples/paper_tables.rs"]
mod paper_tables;

use paper_tables::{fmt_count, fmt_kbyte, fmt_secs, parse_args, transcript, DEFAULT_SCALE};

const GOLDEN: &str = include_str!("golden/paper_tables.md");

#[test]
fn transcript_matches_golden_file() {
    let got = transcript(DEFAULT_SCALE);
    if got == GOLDEN {
        return;
    }
    let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
        (GOLDEN.split('\n').collect(), got.split('\n').collect());
    let line = (0..want_lines.len().max(got_lines.len()))
        .find(|&i| want_lines.get(i) != got_lines.get(i))
        .expect("the transcripts differ, so some line does");
    let show = |l: Option<&&str>| l.map_or("<end of file>".to_string(), |l| format!("{l:?}"));
    panic!(
        "the transcript differs from tests/golden/paper_tables.md at line {}:\n  \
         golden: {}\n  now:    {}\n\
         If the change in counts is intended, regenerate the file with\n  \
         cargo run --release -q --example paper_tables > tests/golden/paper_tables.md",
        line + 1,
        show(want_lines.get(line)),
        show(got_lines.get(line)),
    );
}

#[test]
fn scale_is_the_only_argument_and_must_lie_in_0_1() {
    let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
    assert_eq!(parse(&[]), Ok(DEFAULT_SCALE));
    assert_eq!(parse(&["--scale", "0.1"]), Ok(0.1));
    assert_eq!(parse(&["--scale", "1"]), Ok(1.0));
    for args in [
        &["--scale", "0"][..],
        &["--scale", "7"],
        &["--scale", "-0.5"],
        &["--scale", "nan"],
        &["--scale"],
        &["--scael", "0.5"],
        &["all"],
        &["table2"],
        &["--scale", "0.5", "figure8"],
    ] {
        assert!(parse(args).is_err(), "{args:?} was accepted");
    }
}

#[test]
fn formatting() {
    assert_eq!(fmt_count(0), "0");
    assert_eq!(fmt_count(999), "999");
    assert_eq!(fmt_count(24727), "24,727");
    assert_eq!(fmt_count(33_566_961), "33,566,961");
    assert_eq!(fmt_kbyte(32 * 1024), "32 KByte");
    assert_eq!(fmt_secs(0.020), "20 ms");
    assert_eq!(fmt_secs(12.34), "12.3 s");
    assert_eq!(fmt_secs(495.0), "495 s");
    // The unit is picked after rounding, at both boundaries.
    assert_eq!(fmt_secs(0.9994), "999 ms");
    assert_eq!(fmt_secs(0.9996), "1.0 s");
    assert_eq!(fmt_secs(99.94), "99.9 s");
    assert_eq!(fmt_secs(99.96), "100 s");
}
