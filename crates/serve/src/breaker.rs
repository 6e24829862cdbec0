//! Deterministic GPU circuit breaker for gpm-serve's GP-metis jobs.
//!
//! The engine's fault ladder degrades *one run* gracefully: when the device
//! dies mid-pipeline the run finishes on the CPU from the last
//! checkpoint. A long-lived service (gpm-serve) sees a different failure
//! shape: a sick GPU fails job after job, and every job re-pays the full
//! front-half cost before discovering the device is still dead. The
//! breaker amortizes that discovery across jobs — after `threshold`
//! fatal device errors within a sliding window of `window` jobs, the
//! daemon stops offering work to the GPU and serves the next `cooldown`
//! jobs CPU-only (mt-metis), then lets a single half-open probe job try
//! the GPU again: a clean probe closes the breaker, a fatal one re-opens
//! it for another cooldown.
//!
//! Determinism contract: the breaker counts *jobs*, never wall-clock.
//! All transitions are functions of the sequence of `admit`/`record`
//! calls, and the fatal/clean outcome of each job is itself determined
//! by the job's seeded fault plan (`gpm-faults`). The same job sequence
//! therefore produces identical trip points, states, and counters on any
//! `GPM_THREADS` setting — the property the chaos-smoke CI stage diffs.
//!
//! Concurrency: the breaker is plain mutable state; callers wrap it in a
//! `Mutex` and hold the lock only across `admit`/`record` (never across
//! the partition itself). Under concurrent workers the interleaving of
//! jobs is scheduler-dependent, so bit-reproducibility additionally
//! requires driving jobs in a deterministic order, as the chaos harness
//! does.

use std::collections::VecDeque;

/// Breaker tuning. All counts are in jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Fatal device errors within the window that trip the breaker.
    pub threshold: u32,
    /// Sliding window length, in GPU-admitted jobs.
    pub window: u32,
    /// Jobs served CPU-only after a trip before a half-open probe.
    pub cooldown: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { threshold: 3, window: 8, cooldown: 4 }
    }
}

impl BreakerConfig {
    /// Parse `threshold:window:cooldown` (the `--breaker` CLI syntax).
    pub fn parse(s: &str) -> Option<BreakerConfig> {
        let mut it = s.split(':');
        let threshold: u32 = it.next()?.trim().parse().ok()?;
        let window: u32 = it.next()?.trim().parse().ok()?;
        let cooldown: u32 = it.next()?.trim().parse().ok()?;
        if it.next().is_some() || threshold == 0 || window < threshold {
            return None;
        }
        Some(BreakerConfig { threshold, window, cooldown })
    }
}

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// GPU in use; fatal outcomes are being counted.
    Closed,
    /// Tripped: jobs are served CPU-only until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next job probes the GPU.
    HalfOpen,
}

impl BreakerState {
    /// Wire encoding used by the serve telemetry/stats frames.
    pub fn wire(self) -> u32 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    /// Human-readable token (stats scripts and log lines).
    pub fn token(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Point-in-time view of the breaker, copied into each GP-metis job's
/// reply telemetry and the serve stats frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    pub state: BreakerState,
    /// Times the breaker has tripped (Closed/HalfOpen → Open).
    pub trips: u64,
    /// Fatal outcomes currently inside the sliding window.
    pub window_fatals: u32,
    /// CPU-only jobs left before a half-open probe (0 unless Open).
    pub cooldown_left: u32,
    /// Jobs short-circuited to the CPU while the breaker was open.
    pub cpu_only_jobs: u64,
}

/// What the breaker tells the daemon to do with the next job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the hybrid GPU pipeline; `probe` marks a half-open trial.
    Gpu { probe: bool },
    /// Serve this job CPU-only without touching the device.
    CpuOnly,
}

/// The breaker itself. See the module doc for the state machine.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Outcomes (true = fatal) of the last `cfg.window` GPU jobs.
    window: VecDeque<bool>,
    trips: u64,
    cooldown_left: u32,
    cpu_only_jobs: u64,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            window: VecDeque::new(),
            trips: 0,
            cooldown_left: 0,
            cpu_only_jobs: 0,
        }
    }

    pub fn config(&self) -> BreakerConfig {
        self.cfg
    }

    /// Route the next job. Open-state admissions consume the cooldown;
    /// the admission that finds it exhausted becomes the half-open probe.
    pub fn admit(&mut self) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Gpu { probe: false },
            BreakerState::HalfOpen => Admission::Gpu { probe: true },
            BreakerState::Open => {
                if self.cooldown_left > 0 {
                    self.cooldown_left -= 1;
                    self.cpu_only_jobs += 1;
                    Admission::CpuOnly
                } else {
                    self.state = BreakerState::HalfOpen;
                    Admission::Gpu { probe: true }
                }
            }
        }
    }

    /// Record the outcome of a GPU-admitted job. `fatal` means the
    /// device suffered an unrecoverable error (the run either failed or
    /// finished on the in-run CPU fallback path).
    pub fn record(&mut self, fatal: bool) {
        match self.state {
            BreakerState::Closed => {
                self.window.push_back(fatal);
                while self.window.len() > self.cfg.window as usize {
                    self.window.pop_front();
                }
                let fatals = self.window.iter().filter(|&&f| f).count() as u32;
                if fatals >= self.cfg.threshold {
                    self.trip();
                }
            }
            BreakerState::HalfOpen => {
                if fatal {
                    self.trip();
                } else {
                    self.state = BreakerState::Closed;
                    self.window.clear();
                }
            }
            // A job admitted before the trip finishing afterwards: its
            // outcome is stale, the breaker already acted.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.trips += 1;
        self.cooldown_left = self.cfg.cooldown;
        self.window.clear();
    }

    pub fn snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot {
            state: self.state,
            trips: self.trips,
            window_fatals: self.window.iter().filter(|&&f| f).count() as u32,
            cooldown_left: self.cooldown_left,
            cpu_only_jobs: self.cpu_only_jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(b: &mut CircuitBreaker, fatal: bool) -> Admission {
        let a = b.admit();
        if let Admission::Gpu { .. } = a {
            b.record(fatal);
        }
        a
    }

    #[test]
    fn trips_after_threshold_in_window() {
        let mut b = CircuitBreaker::new(BreakerConfig { threshold: 3, window: 8, cooldown: 2 });
        drive(&mut b, true);
        drive(&mut b, false);
        drive(&mut b, true);
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        drive(&mut b, true); // third fatal within the window
        let s = b.snapshot();
        assert_eq!(s.state, BreakerState::Open);
        assert_eq!(s.trips, 1);
        assert_eq!(s.cooldown_left, 2);
        assert_eq!(s.window_fatals, 0, "window clears on trip");
    }

    #[test]
    fn window_slides_old_fatals_out() {
        let mut b = CircuitBreaker::new(BreakerConfig { threshold: 2, window: 3, cooldown: 1 });
        drive(&mut b, true);
        drive(&mut b, false);
        drive(&mut b, false);
        drive(&mut b, false); // first fatal has slid out
        drive(&mut b, true);
        assert_eq!(b.snapshot().state, BreakerState::Closed, "fatals too far apart");
        drive(&mut b, true); // two fatals within the last 3
        assert_eq!(b.snapshot().state, BreakerState::Open);
    }

    #[test]
    fn cooldown_counts_jobs_then_probes() {
        let mut b = CircuitBreaker::new(BreakerConfig { threshold: 1, window: 4, cooldown: 3 });
        drive(&mut b, true); // trip
        for left in [2, 1, 0] {
            assert_eq!(b.admit(), Admission::CpuOnly);
            assert_eq!(b.snapshot().cooldown_left, left);
        }
        // Cooldown exhausted: next admission is the half-open probe.
        assert_eq!(b.admit(), Admission::Gpu { probe: true });
        assert_eq!(b.snapshot().state, BreakerState::HalfOpen);
        assert_eq!(b.snapshot().cpu_only_jobs, 3);
    }

    #[test]
    fn clean_probe_closes_fatal_probe_reopens() {
        let cfg = BreakerConfig { threshold: 1, window: 4, cooldown: 1 };
        let mut b = CircuitBreaker::new(cfg);
        drive(&mut b, true); // trip 1
        assert_eq!(b.admit(), Admission::CpuOnly);
        drive(&mut b, true); // fatal probe → trip 2
        let s = b.snapshot();
        assert_eq!(s.state, BreakerState::Open);
        assert_eq!(s.trips, 2);
        assert_eq!(b.admit(), Admission::CpuOnly);
        drive(&mut b, false); // clean probe → closed
        let s = b.snapshot();
        assert_eq!(s.state, BreakerState::Closed);
        assert_eq!(s.trips, 2);
        assert_eq!(s.window_fatals, 0);
    }

    #[test]
    fn zero_cooldown_goes_straight_to_probe() {
        let mut b = CircuitBreaker::new(BreakerConfig { threshold: 1, window: 2, cooldown: 0 });
        drive(&mut b, true);
        assert_eq!(b.admit(), Admission::Gpu { probe: true });
    }

    #[test]
    fn same_sequence_same_snapshots() {
        let run = || {
            let mut b = CircuitBreaker::new(BreakerConfig::default());
            let outcomes = [false, true, true, false, true, true, true, false, false];
            let mut trace = Vec::new();
            for &f in &outcomes {
                drive(&mut b, f);
                trace.push(b.snapshot());
            }
            trace
        };
        assert_eq!(run(), run(), "breaker must be a pure function of the job sequence");
    }

    #[test]
    fn parse_breaker_config() {
        assert_eq!(
            BreakerConfig::parse("3:8:4"),
            Some(BreakerConfig { threshold: 3, window: 8, cooldown: 4 })
        );
        assert_eq!(
            BreakerConfig::parse(" 1: 2 :0 "),
            Some(BreakerConfig { threshold: 1, window: 2, cooldown: 0 }),
            "fields are trimmed"
        );
        for bad in ["", "3:8", "3:8:4:1", "0:8:4", "4:3:2", "a:b:c"] {
            assert_eq!(BreakerConfig::parse(bad), None, "accepted {bad:?}");
        }
    }
}
