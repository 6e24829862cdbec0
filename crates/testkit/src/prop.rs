//! Minimal property-testing harness with input shrinking.
//!
//! A property is a closure `FnMut(&mut Source) -> PropResult`. It draws
//! its inputs from the [`Source`] (ranged integers, collections, coin
//! flips) and returns `Err(message)` — usually via the `tk_assert!`
//! family — when an invariant breaks.
//!
//! Every raw 64-bit draw a property makes is recorded on a *tape*. When
//! a case fails, the harness shrinks the tape greedily — dropping the
//! tail (missing draws replay as zero) and binary-searching each
//! recorded draw toward zero — re-running the property on each
//! candidate and keeping it whenever the failure persists. Because all
//! derived values ([`Source::below`] and everything built on it) are
//! monotone in the raw draw, driving draws toward zero drives the
//! generated inputs toward their minimal shapes: shorter collections,
//! smaller integers, earlier enum variants.

use gpm_graph::rng::SplitMix64;

/// What a property returns: `Err(message)` fails the case.
pub type PropResult = Result<(), String>;

/// The base seed of a run without a `GPM_TESTKIT_SEED` override, and
/// the fixed seed of every [`crate::pinned`] case loop.
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE;

/// Harness configuration. Build one with [`Config::new`] to pick up the
/// `GPM_TESTKIT_SEED` / `GPM_TESTKIT_CASES` environment overrides.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u64,
    /// Base seed; case `i` draws from `SplitMix64::stream(seed, i)`.
    pub seed: u64,
    /// Cap on property re-executions spent shrinking a failure.
    pub max_shrink_runs: usize,
}

impl Config {
    /// `cases` random cases with the default seed, unless the
    /// `GPM_TESTKIT_SEED` / `GPM_TESTKIT_CASES` environment variables
    /// override them (useful to reproduce or stress a failure).
    pub fn new(cases: u64) -> Self {
        let seed = std::env::var("GPM_TESTKIT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_SEED);
        let cases =
            std::env::var("GPM_TESTKIT_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(cases);
        Config { cases, seed, max_shrink_runs: 1_000 }
    }
}

/// The stream a property draws its random inputs from.
///
/// In generation mode draws come from a seeded [`SplitMix64`]; in
/// replay mode they come from a recorded tape (exhausted tapes yield
/// zeros, which is what makes tail-truncation a valid shrink). Either
/// way every draw is recorded, so the harness always holds a tape that
/// reproduces the run exactly.
pub struct Source {
    rng: Option<SplitMix64>,
    tape: Vec<u64>,
    pos: usize,
    record: Vec<u64>,
}

impl Source {
    pub(crate) fn live(seed: u64, case: u64) -> Self {
        Source {
            rng: Some(SplitMix64::stream(seed, case)),
            tape: Vec::new(),
            pos: 0,
            record: Vec::new(),
        }
    }

    fn replay(tape: &[u64]) -> Self {
        Source { rng: None, tape: tape.to_vec(), pos: 0, record: Vec::new() }
    }

    fn into_record(self) -> Vec<u64> {
        self.record
    }

    /// Next raw 64-bit draw (recorded).
    pub fn next_u64(&mut self) -> u64 {
        let v = match &mut self.rng {
            Some(rng) => rng.next_u64(),
            None => {
                let v = self.tape.get(self.pos).copied().unwrap_or(0);
                self.pos += 1;
                v
            }
        };
        self.record.push(v);
        v
    }

    /// Arbitrary 32-bit value (shrinks toward 0).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, bound)`, monotone in the raw draw (Lemire map).
    /// `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Source::below(0)");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(lo as u64, hi as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Coin flip with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// A vector with length in `[min_len, max_len)` whose elements come
    /// from `f` (length and elements all shrink independently).
    pub fn vec_of<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }

    /// A uniformly chosen element of `xs` (shrinks toward `xs[0]`).
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "Source::choose on empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Run `f` against `cases` random inputs; on failure, shrink and panic
/// with the minimal counterexample found. Equivalent to
/// `check_cfg(Config::new(cases), name, f)`.
pub fn check<F>(name: &str, cases: u64, f: F)
where
    F: FnMut(&mut Source) -> PropResult,
{
    check_cfg(Config::new(cases), name, f)
}

/// [`check`] with an explicit [`Config`].
pub fn check_cfg<F>(cfg: Config, name: &str, mut f: F)
where
    F: FnMut(&mut Source) -> PropResult,
{
    for case in 0..cfg.cases {
        let mut src = Source::live(cfg.seed, case);
        if let Err(first_msg) = f(&mut src) {
            let tape = src.into_record();
            let orig_len = tape.len();
            let (tape, runs) = shrink(&mut f, tape, cfg.max_shrink_runs);
            // One final replay so the reported message (and anything the
            // property observed) corresponds to the minimal tape.
            let msg = match fails(&mut f, &tape) {
                Some((_, m)) => m,
                None => first_msg, // flaky property; report the original
            };
            panic!(
                "[gpm-testkit] property '{name}' failed (seed={}, case={case}).\n\
                 shrunk {orig_len} -> {} draws in {runs} runs.\n\
                 {msg}\n\
                 minimal tape: {}",
                cfg.seed,
                tape.len(),
                fmt_tape(&tape),
            );
        }
    }
}

fn fmt_tape(tape: &[u64]) -> String {
    let shown: Vec<String> = tape.iter().take(48).map(|v| format!("{v:#x}")).collect();
    let ellipsis = if tape.len() > 48 { ", ..." } else { "" };
    format!("[{}{}]", shown.join(", "), ellipsis)
}

/// Run `f` on a replayed tape; `Some((consumed_tape, msg))` if it fails.
fn fails<F>(f: &mut F, tape: &[u64]) -> Option<(Vec<u64>, String)>
where
    F: FnMut(&mut Source) -> PropResult,
{
    let mut src = Source::replay(tape);
    match f(&mut src) {
        Ok(()) => None,
        Err(msg) => Some((src.into_record(), msg)),
    }
}

/// `(len, lexicographic)` order — the measure that strictly decreases as
/// shrinking progresses, guaranteeing termination.
fn smaller(a: &[u64], b: &[u64]) -> bool {
    a.len() < b.len() || (a.len() == b.len() && a < b)
}

/// Greedy tape shrinking: alternate tail-truncation and per-draw binary
/// search toward zero until a fixpoint or the run budget is spent.
/// Returns the smallest still-failing tape and the number of runs used.
fn shrink<F>(f: &mut F, mut tape: Vec<u64>, budget: usize) -> (Vec<u64>, usize)
where
    F: FnMut(&mut Source) -> PropResult,
{
    let mut spent = 0usize;
    let mut improved = true;
    while improved && spent < budget {
        improved = false;

        // Tail truncation: replaying a prefix zero-fills the rest.
        for cand_len in [tape.len() / 2, tape.len().saturating_sub(1)] {
            if cand_len >= tape.len() || spent >= budget {
                continue;
            }
            spent += 1;
            if let Some((t, _)) = fails(f, &tape[..cand_len]) {
                if smaller(&t, &tape) {
                    tape = t;
                    improved = true;
                }
            }
        }

        // Per-draw binary search toward zero.
        let mut i = 0;
        while i < tape.len() && spent < budget {
            if tape[i] == 0 {
                i += 1;
                continue;
            }
            // Probe zero outright first — the common big win.
            let mut cand = tape.clone();
            cand[i] = 0;
            spent += 1;
            if let Some((t, _)) = fails(f, &cand) {
                if smaller(&t, &tape) {
                    tape = t;
                    improved = true;
                }
                i += 1;
                continue;
            }
            // Zero passes: find the smallest failing value for this draw.
            let mut lo = 0u64; // known passing
            let mut hi = tape[i]; // known failing (current tape fails)
            while hi - lo > 1 && spent < budget {
                let mid = lo + (hi - lo) / 2;
                let mut cand = tape.clone();
                cand[i] = mid;
                spent += 1;
                if let Some((t, _)) = fails(f, &cand) {
                    hi = mid;
                    if smaller(&t, &tape) {
                        tape = t;
                        improved = true;
                    }
                } else {
                    lo = mid;
                }
                if i >= tape.len() {
                    break; // an accepted candidate shortened the tape
                }
            }
            i += 1;
        }
    }
    (tape, spent)
}

/// Assert a condition inside a property; returns `Err` (failing the
/// case and triggering shrinking) instead of panicking.
#[macro_export]
macro_rules! tk_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($arg)+)
            ));
        }
    };
}

/// `tk_assert!` for equality, reporting both sides on failure.
#[macro_export]
macro_rules! tk_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {} ({}:{}): left = {:?}, right = {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                a,
                b
            ));
        }
    }};
    ($a:expr, $b:expr, $($arg:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {} ({}:{}): left = {:?}, right = {:?}: {}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                a,
                b,
                format!($($arg)+)
            ));
        }
    }};
}

/// `tk_assert!` for inequality.
#[macro_export]
macro_rules! tk_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!(
                "assertion failed: {} != {} ({}:{}): both = {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                a
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut src = Source::live(1, 0);
        for _ in 0..1_000 {
            let v = src.u64_in(10, 20);
            assert!((10..20).contains(&v));
            let u = src.usize_in(0, 3);
            assert!(u < 3);
        }
    }

    #[test]
    fn vec_of_respects_length_range() {
        let mut src = Source::live(2, 0);
        for _ in 0..200 {
            let v = src.vec_of(2, 7, |s| s.next_u32());
            assert!((2..7).contains(&v.len()));
        }
    }

    #[test]
    fn replay_reproduces_live_run() {
        let mut live = Source::live(3, 5);
        let a: Vec<u64> = (0..20).map(|_| live.u64_in(0, 1_000)).collect();
        let tape = live.into_record();
        let mut rep = Source::replay(&tape);
        let b: Vec<u64> = (0..20).map(|_| rep.u64_in(0, 1_000)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn exhausted_replay_yields_zeros() {
        let mut src = Source::replay(&[7]);
        assert_eq!(src.next_u64(), 7);
        assert_eq!(src.next_u64(), 0);
        assert_eq!(src.below(100), 0);
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut n = 0u64;
        check_cfg(Config { cases: 37, seed: 9, max_shrink_runs: 0 }, "count", |src| {
            let _ = src.next_u64();
            n += 1;
            Ok(())
        });
        assert_eq!(n, 37);
    }

    #[test]
    fn smaller_is_len_then_lex() {
        assert!(smaller(&[9, 9], &[0, 0, 0]));
        assert!(smaller(&[0, 5], &[1, 0]));
        assert!(!smaller(&[2, 0], &[2, 0]));
    }
}
