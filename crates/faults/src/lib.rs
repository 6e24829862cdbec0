//! Deterministic, seeded fault injection for the CPU-GPU pipeline.
//!
//! Every seam of the hybrid partitioner — device allocations, PCIe
//! transfers, kernel launches, message sends/receives, whole ranks — can be
//! made to fail on a *schedule* so the recovery paths (retry, backoff,
//! GPU→CPU degradation) are exercised reproducibly. A schedule is a
//! [`FaultPlan`]: a seed plus a list of [`FaultSpec`]s, each naming an
//! injection *site* (e.g. `gpu.h2d`, `msg.send.r1`), a [`Selector`] over
//! that site's invocation counter, and the [`FaultKind`] to raise.
//!
//! Retry happens at the injection site: the device and the message
//! substrate retry transient faults under a [`RetryPolicy`]. Nothing
//! retries a whole run, because a fresh injector built from the same plan
//! fails again at the same invocation.
//!
//! Determinism contract: a site's invocation counter increments on every
//! [`FaultInjector::check`] call, and probabilistic selectors draw from a
//! SplitMix64 stream keyed by `(plan seed, site name, invocation index)` —
//! never from wall-clock or thread identity. The same plan against the same
//! program therefore injects the same faults at the same points regardless
//! of `GPM_THREADS` or work-stealing order, provided each site is visited
//! in a deterministic sequence (GPU sites run on the host control thread;
//! msg sites embed the rank id so each rank owns its own counters).
//!
//! The environment hook is `GPM_FAULTS=<seed>:<spec>[,<spec>...]` where
//! each spec is `site@selector=kind`, e.g.
//! `GPM_FAULTS=42:gpu.launch@8=lost,msg.send.r1@0..2=drop`.
//! An empty spec list (`GPM_FAULTS=42:`) is a valid plan that injects
//! nothing; [`FaultInjector::is_active`] lets call sites skip all
//! bookkeeping in that case so the zero-fault build stays byte-identical.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gpm_graph::digest::fnv1a;
use gpm_graph::rng::SplitMix64;

/// What kind of failure is injected at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A PCIe/DMA transfer error (h2d/d2h). Transient: retry is expected
    /// to succeed unless the schedule keeps firing.
    TransferError,
    /// The device reports out-of-memory even though capacity accounting
    /// says the allocation fits. Fatal for the current device session.
    SpuriousOom,
    /// A kernel launch aborts before any lane runs. Transient.
    KernelAbort,
    /// The device falls off the bus: every subsequent operation fails.
    /// Fatal.
    DeviceLost,
    /// A message is dropped in flight; the sender may retry. Transient.
    MsgDrop,
    /// A message is delayed in flight; delivery still happens. Transient.
    MsgDelay,
    /// The rank crashes at this point. Fatal.
    RankCrash,
    /// The code at the site panics (unwind) instead of returning an error.
    /// Used by gpm-serve to exercise worker panic isolation: the injector
    /// only *reports* the fault — the call site is expected to `panic!`.
    /// Fatal: a deterministic panic will recur on retry.
    Panic,
}

/// Coarse severity: can a bounded retry at the injection site recover?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    Transient,
    Fatal,
}

impl FaultKind {
    /// Severity class for this kind.
    pub fn class(self) -> FaultClass {
        match self {
            FaultKind::TransferError
            | FaultKind::KernelAbort
            | FaultKind::MsgDrop
            | FaultKind::MsgDelay => FaultClass::Transient,
            FaultKind::SpuriousOom
            | FaultKind::DeviceLost
            | FaultKind::RankCrash
            | FaultKind::Panic => FaultClass::Fatal,
        }
    }

    /// The token used in `GPM_FAULTS` specs.
    pub fn token(self) -> &'static str {
        match self {
            FaultKind::TransferError => "transfer",
            FaultKind::SpuriousOom => "oom",
            FaultKind::KernelAbort => "abort",
            FaultKind::DeviceLost => "lost",
            FaultKind::MsgDrop => "drop",
            FaultKind::MsgDelay => "delay",
            FaultKind::RankCrash => "crash",
            FaultKind::Panic => "panic",
        }
    }

    fn parse(tok: &str) -> Option<FaultKind> {
        Some(match tok {
            "transfer" => FaultKind::TransferError,
            "oom" => FaultKind::SpuriousOom,
            "abort" => FaultKind::KernelAbort,
            "lost" => FaultKind::DeviceLost,
            "drop" => FaultKind::MsgDrop,
            "delay" => FaultKind::MsgDelay,
            "crash" => FaultKind::RankCrash,
            "panic" => FaultKind::Panic,
            _ => return None,
        })
    }
}

/// An injected failure: which site raised it, on which invocation, and what
/// kind of fault it models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultError {
    pub site: String,
    pub invocation: u64,
    pub kind: FaultKind,
}

impl FaultError {
    /// True when a bounded retry at the site may clear the fault.
    pub fn is_transient(&self) -> bool {
        self.kind.class() == FaultClass::Transient
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {:?} fault at {} (invocation {})",
            self.kind, self.site, self.invocation
        )
    }
}

impl std::error::Error for FaultError {}

/// Which invocations of a site a spec fires on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Selector {
    /// Every invocation.
    Always,
    /// Exactly invocation `n` (0-based).
    One(u64),
    /// Invocations in `[start, end)`.
    Range(u64, u64),
    /// Each invocation independently with probability `p`, drawn from the
    /// plan's seeded stream for the site — deterministic per
    /// `(seed, site, invocation)`.
    Prob(f64),
}

impl Selector {
    fn matches(self, seed: u64, site: &str, invocation: u64) -> bool {
        match self {
            Selector::Always => true,
            Selector::One(n) => invocation == n,
            Selector::Range(a, b) => (a..b).contains(&invocation),
            // the site's FNV-1a folds it into the stream id, so two sites
            // with the same invocation index draw independently
            Selector::Prob(p) => {
                SplitMix64::stream(seed ^ fnv1a(site.as_bytes()), invocation).chance(p)
            }
        }
    }
}

/// One scheduled fault: a site pattern, a selector, and a kind.
///
/// The site pattern is matched exactly, unless it ends in `*`, in which
/// case it matches any site with that prefix (`gpu.*` hits every device
/// seam).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    pub site: String,
    pub selector: Selector,
    pub kind: FaultKind,
}

impl FaultSpec {
    fn matches_site(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.site == site,
        }
    }
}

/// Error from parsing a `GPM_FAULTS` value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanParseError {
    pub input: String,
    pub msg: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan `{}`: {}", self.input, self.msg)
    }
}

impl std::error::Error for PlanParseError {}

/// A seeded schedule of faults.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    pub seed: u64,
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with the given seed and no specs yet.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, specs: Vec::new() }
    }

    /// Builder: add one spec.
    pub fn with(mut self, site: &str, selector: Selector, kind: FaultKind) -> FaultPlan {
        self.specs.push(FaultSpec { site: site.to_string(), selector, kind });
        self
    }

    /// True when no spec can ever fire.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Parse `<seed>:<spec>[,<spec>...]` — the `GPM_FAULTS` format. Each
    /// spec is `site@selector=kind` where selector is `*` (always), `N`
    /// (one invocation), `N..M` (half-open range), or `pF` (probability,
    /// e.g. `p0.01`), and kind is one of `transfer`, `oom`, `abort`,
    /// `lost`, `drop`, `delay`, `crash`, `panic`.
    pub fn parse(input: &str) -> Result<FaultPlan, PlanParseError> {
        let err = |msg: &str| PlanParseError { input: input.to_string(), msg: msg.to_string() };
        let (seed_str, rest) =
            input.split_once(':').ok_or_else(|| err("expected `<seed>:<spec>` (missing `:`)"))?;
        let seed: u64 =
            seed_str.trim().parse().map_err(|_| err("seed must be an unsigned integer"))?;
        let mut plan = FaultPlan::new(seed);
        for entry in rest.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site_sel, kind_str) =
                entry.split_once('=').ok_or_else(|| err("spec must be `site@selector=kind`"))?;
            let (site, sel_str) =
                site_sel.split_once('@').ok_or_else(|| err("spec must be `site@selector=kind`"))?;
            if site.is_empty() {
                return Err(err("empty site name"));
            }
            let selector = parse_selector(sel_str).ok_or_else(|| err("bad selector"))?;
            let kind = FaultKind::parse(kind_str).ok_or_else(|| err("unknown fault kind"))?;
            plan.specs.push(FaultSpec { site: site.to_string(), selector, kind });
        }
        Ok(plan)
    }

    /// Read the plan from `GPM_FAULTS`. `Ok(None)` when the variable is
    /// unset or empty.
    pub fn from_env() -> Result<Option<FaultPlan>, PlanParseError> {
        match std::env::var("GPM_FAULTS") {
            Ok(v) if !v.trim().is_empty() => FaultPlan::parse(&v).map(Some),
            _ => Ok(None),
        }
    }
}

fn parse_selector(s: &str) -> Option<Selector> {
    let s = s.trim();
    if s == "*" {
        return Some(Selector::Always);
    }
    if let Some(p) = s.strip_prefix('p') {
        let p: f64 = p.parse().ok()?;
        if !(0.0..=1.0).contains(&p) {
            return None;
        }
        return Some(Selector::Prob(p));
    }
    if let Some((a, b)) = s.split_once("..") {
        let a: u64 = a.parse().ok()?;
        let b: u64 = b.parse().ok()?;
        if a >= b {
            return None;
        }
        return Some(Selector::Range(a, b));
    }
    s.parse().ok().map(Selector::One)
}

/// Runtime driver of a [`FaultPlan`]: tracks per-site invocation counters
/// and reports which invocations fault. Shared (`Arc`) between the device,
/// the message substrate, and the pipeline driver so one plan covers the
/// whole run.
pub struct FaultInjector {
    plan: FaultPlan,
    active: bool,
    counters: Mutex<BTreeMap<String, u64>>,
    injected: AtomicU64,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let active = !plan.is_empty();
        FaultInjector {
            plan,
            active,
            counters: Mutex::new(BTreeMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// False when the plan is empty — call sites use this to skip counter
    /// bookkeeping entirely so the zero-fault path stays byte-identical
    /// (no locks, no modeled-time changes).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Visit `site`: bump its invocation counter and return the fault its
    /// schedule injects at this invocation, if any. The first matching
    /// spec wins.
    pub fn check(&self, site: &str) -> Option<FaultError> {
        if !self.active {
            return None;
        }
        let invocation = {
            let mut c = self.counters.lock().unwrap();
            let slot = c.entry(site.to_string()).or_insert(0);
            let inv = *slot;
            *slot += 1;
            inv
        };
        for spec in &self.plan.specs {
            if spec.matches_site(site) && spec.selector.matches(self.plan.seed, site, invocation) {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(FaultError { site: site.to_string(), invocation, kind: spec.kind });
            }
        }
        None
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("injected", &self.injected())
            .finish()
    }
}

/// Bounded retry-with-exponential-backoff parameters shared by the device
/// transfer paths and the message substrate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (so `max_retries + 1` total
    /// attempts).
    pub max_retries: u32,
    /// Backoff before retry 1, in (modeled or wall) seconds.
    pub base_backoff_secs: f64,
    /// Multiplier per subsequent retry.
    pub factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, base_backoff_secs: 100e-6, factor: 4.0 }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based): `base * factor^(attempt-1)`.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        self.base_backoff_secs * self.factor.powi(attempt.saturating_sub(1) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let p = FaultPlan::parse("42:gpu.launch@8=lost,msg.send.r1@0..2=drop").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.specs.len(), 2);
        assert_eq!(p.specs[0].site, "gpu.launch");
        assert_eq!(p.specs[0].selector, Selector::One(8));
        assert_eq!(p.specs[0].kind, FaultKind::DeviceLost);
        assert_eq!(p.specs[1].selector, Selector::Range(0, 2));
        assert_eq!(p.specs[1].kind, FaultKind::MsgDrop);
    }

    #[test]
    fn parse_empty_spec_list_is_valid() {
        let p = FaultPlan::parse("7:").unwrap();
        assert_eq!(p.seed, 7);
        assert!(p.is_empty());
    }

    #[test]
    fn parse_star_and_prob_selectors() {
        let p = FaultPlan::parse("1:gpu.*@*=transfer,msg.recv.r0@p0.5=delay").unwrap();
        assert_eq!(p.specs[0].selector, Selector::Always);
        assert!(p.specs[0].matches_site("gpu.h2d"));
        assert!(!p.specs[0].matches_site("msg.send.r0"));
        assert_eq!(p.specs[1].selector, Selector::Prob(0.5));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "no-colon",
            "x:gpu.h2d@0=transfer",
            "1:gpu.h2d@=transfer",
            "1:gpu.h2d@0",
            "1:@0=transfer",
            "1:gpu.h2d@0=explode",
            "1:gpu.h2d@5..2=transfer",
            "1:gpu.h2d@p1.5=transfer",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn injector_counts_invocations_per_site() {
        let inj = FaultInjector::new(FaultPlan::new(1).with(
            "gpu.h2d",
            Selector::One(2),
            FaultKind::TransferError,
        ));
        assert!(inj.check("gpu.h2d").is_none()); // invocation 0
        assert!(inj.check("gpu.d2h").is_none()); // separate counter
        assert!(inj.check("gpu.h2d").is_none()); // invocation 1
        let f = inj.check("gpu.h2d").unwrap(); // invocation 2
        assert_eq!(f.invocation, 2);
        assert_eq!(f.kind, FaultKind::TransferError);
        assert!(inj.check("gpu.h2d").is_none()); // invocation 3
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn empty_plan_never_fires_and_is_inactive() {
        let inj = FaultInjector::new(FaultPlan::empty());
        assert!(!inj.is_active());
        for _ in 0..100 {
            assert!(inj.check("gpu.launch").is_none());
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn prob_selector_is_deterministic_per_seed() {
        let fire = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(FaultPlan::new(seed).with(
                "msg.send.r0",
                Selector::Prob(0.3),
                FaultKind::MsgDrop,
            ));
            (0..64).map(|_| inj.check("msg.send.r0").is_some()).collect()
        };
        let a = fire(9);
        assert_eq!(a, fire(9), "same seed must replay the same schedule");
        assert_ne!(a, fire(10), "different seeds should differ");
        assert!(a.iter().any(|&b| b) && !a.iter().all(|&b| b));
    }

    #[test]
    fn classes_split_transient_vs_fatal() {
        assert_eq!(FaultKind::TransferError.class(), FaultClass::Transient);
        assert_eq!(FaultKind::KernelAbort.class(), FaultClass::Transient);
        assert_eq!(FaultKind::MsgDrop.class(), FaultClass::Transient);
        assert_eq!(FaultKind::MsgDelay.class(), FaultClass::Transient);
        assert_eq!(FaultKind::SpuriousOom.class(), FaultClass::Fatal);
        assert_eq!(FaultKind::DeviceLost.class(), FaultClass::Fatal);
        assert_eq!(FaultKind::RankCrash.class(), FaultClass::Fatal);
        assert_eq!(FaultKind::Panic.class(), FaultClass::Fatal);
    }

    #[test]
    fn panic_kind_parses_and_roundtrips() {
        let p = FaultPlan::parse("1:serve.job@0=panic").unwrap();
        assert_eq!(p.specs[0].kind, FaultKind::Panic);
        assert_eq!(FaultKind::Panic.token(), "panic");
        assert_eq!(FaultKind::parse("panic"), Some(FaultKind::Panic));
    }

    #[test]
    fn backoff_grows_by_factor() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_secs(1), 100e-6);
        assert!((p.backoff_secs(2) - 400e-6).abs() < 1e-18);
        assert!((p.backoff_secs(3) - 1600e-6).abs() < 1e-18);
    }
}
