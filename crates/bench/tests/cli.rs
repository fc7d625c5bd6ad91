//! The `experiments` CLI rejects what it cannot run — exit 2 and the
//! usage line, not a silent no-op or a panic in the data generator — and
//! every target runs on its own, computing the grids it builds on.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [
        &["tabel2"][..],
        &["--scael", "0.5"],
        &["--scale", "0", "table1"],
        &["--scale", "7", "table1"],
        &["--scale", "nan", "table1"],
        &["--scale"],
    ] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn figure8_alone_computes_the_grids_it_needs() {
    let out = experiments(&["--scale", "0.01", "figure8"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 8"), "{stdout}");
}
