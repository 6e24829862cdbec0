//! Golden digests: pin what a code path outputs without keeping a copy of
//! the code that produced it.
//!
//! A pinned test runs a fixed case loop, folds every output that must
//! not move into one [`Fnv1a`] digest, and compares the result with a
//! committed literal. The loop always draws from [`DEFAULT_SEED`] and
//! ignores `GPM_TESTKIT_SEED` and `GPM_TESTKIT_CASES`, so the literal
//! holds in every environment. A mismatch prints the new value. If the
//! move is intended, the literal is replaced by that value and the
//! change says why.

use crate::prop::{PropResult, Source, DEFAULT_SEED};
use gpm_graph::digest::Fnv1a;

/// Run cases `0..cases` of `f` (case `i` draws from
/// `SplitMix64::stream(DEFAULT_SEED, i)`), folding each case's outputs
/// into one running digest, then [`assert_pin`] it against `pin`. An
/// `Err` from `f` fails the test at once with the case number; there is
/// no shrinking, since the digest spans all cases.
pub fn pinned<F>(name: &str, cases: u64, pin: u64, mut f: F)
where
    F: FnMut(&mut Source, &mut Fnv1a) -> PropResult,
{
    let mut h = Fnv1a::new();
    for case in 0..cases {
        let mut src = Source::live(DEFAULT_SEED, case);
        if let Err(msg) = f(&mut src, &mut h) {
            panic!("[gpm-testkit] pinned '{name}' failed on case {case}:\n{msg}");
        }
    }
    assert_pin(name, pin, h.finish());
}

/// Assert that digest `got` equals the committed `pin`; on a mismatch,
/// panic with the new value.
pub fn assert_pin(name: &str, pin: u64, got: u64) {
    assert!(
        got == pin,
        "[gpm-testkit] digest '{name}' moved: pinned {pin:#018x}, now {got:#018x}.\n\
         If the change is intended, re-pin to {got:#018x} and say why in CHANGES.md."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn digest_covers_every_case_in_order() {
        let mut want = Fnv1a::new();
        for case in 0..5 {
            want.u64(Source::live(DEFAULT_SEED, case).next_u64());
        }
        pinned("order", 5, want.finish(), |src, h| {
            h.u64(src.next_u64());
            Ok(())
        });
    }

    #[test]
    fn mismatch_reports_the_new_value() {
        let got = Fnv1a::new().u64(1).finish();
        let err = catch_unwind(|| assert_pin("moved", 0, got)).unwrap_err();
        let msg = err.downcast::<String>().unwrap();
        assert!(msg.contains(&format!("now {got:#018x}")), "{msg}");
    }

    #[test]
    fn case_error_names_the_case() {
        let err = catch_unwind(|| {
            pinned("fails", 4, 0, |_, _| Err("boom".into()));
        })
        .unwrap_err();
        let msg = err.downcast::<String>().unwrap();
        assert!(msg.contains("'fails' failed on case 0") && msg.contains("boom"), "{msg}");
    }
}
