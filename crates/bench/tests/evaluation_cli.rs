//! The `evaluation` binary refuses what its parser rejects: exit 1 and an
//! `error: ` line on stderr, before any graph is generated.

use std::process::Command;

#[test]
fn evaluation_rejects_bad_arguments() {
    for args in [
        &["ablations", "k", "6O000"][..],
        &["ablations", "k", "0"],
        &["ablations", "coalesce"],
        &["tables"],
        &["ablations", "k", "100", "extra"],
        &["table1", "extra"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_evaluation")).args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error: ") && err.lines().count() == 1, "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
