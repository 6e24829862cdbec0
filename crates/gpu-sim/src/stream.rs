//! Overlap-aware execution timeline: a deterministic critical-path model
//! over the op DAG (DESIGN.md §16).
//!
//! A [`Timeline`] records operations — each occupying one [`EngineId`]
//! for a modeled duration, with explicit [`EventId`] dependencies — and
//! evaluates the earliest-start schedule:
//!
//! * `start(op) = max(finish(dep) for dep in op.deps)` (0 with no deps),
//! * `finish(op) = start(op) + duration`,
//! * the same-engine predecessor is materialized as an ordinary
//!   dependency at record time, so ops on one engine serialize in
//!   recording order and evaluation is a pure function of the op list.
//!
//! **Determinism.** `f64::max` is exact (no rounding), so `start` does
//! not depend on the order dependencies are listed or evaluated in, and
//! `finish` performs exactly one addition per op. Two timelines holding
//! the same ops with the same per-engine recording order therefore
//! evaluate to bit-identical schedules regardless of how the recordings
//! of *different* engines interleave — the property the order-independence
//! tests pin. The makespan is a deterministic function of the modeled
//! durations, which are themselves thread-count independent.
//!
//! **Never slower.** Every dependency edge respects the serialized
//! program order, so the serialized schedule is one valid linearization
//! of the DAG; the critical path through it can never exceed the sum of
//! all op durations. When op durations tile the serialized ledger phases
//! exactly (the orchestrators' charging rule), the makespan is therefore
//! bounded by the serialized modeled time.

use crate::event::{EngineId, EventId, Op};
use std::collections::BTreeMap;

/// A recorded op DAG over engines, evaluated into a [`Schedule`].
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    ops: Vec<Op>,
    last_on_engine: BTreeMap<EngineId, EventId>,
}

impl Timeline {
    /// New empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one op: `duration` seconds on `engine`, after `deps` and
    /// after the previous op recorded on the same engine. Returns the
    /// op's event handle.
    pub fn record(
        &mut self,
        engine: EngineId,
        label: &str,
        duration: f64,
        deps: &[EventId],
    ) -> EventId {
        let id = EventId(self.ops.len() as u32);
        let mut all = Vec::with_capacity(deps.len() + 1);
        if let Some(&prev) = self.last_on_engine.get(&engine) {
            all.push(prev);
        }
        for &d in deps {
            debug_assert!(d.index() < self.ops.len(), "dependency on a future op");
            if !all.contains(&d) {
                all.push(d);
            }
        }
        self.ops.push(Op { engine, duration: duration.max(0.0), deps: all, label: label.into() });
        self.last_on_engine.insert(engine, id);
        id
    }

    /// Replace `id`'s duration. For charges only known after later ops
    /// were recorded — e.g. a CPU-lane parallel phase whose ledger total
    /// is charged once at the end of a loop and then distributed
    /// proportionally over the per-iteration ops. Call before
    /// [`Timeline::evaluate`]; the DAG shape is unchanged.
    pub fn set_duration(&mut self, id: EventId, duration: f64) {
        self.ops[id.index()].duration = duration.max(0.0);
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded ops, in insertion order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Evaluate the earliest-start schedule. Record-time dependency
    /// checking guarantees every dep precedes its dependent in `ops`, so
    /// one forward pass suffices.
    pub fn evaluate(&self) -> Schedule {
        let n = self.ops.len();
        let mut start = vec![0.0f64; n];
        let mut finish = vec![0.0f64; n];
        for (i, op) in self.ops.iter().enumerate() {
            let s = op.deps.iter().map(|d| finish[d.index()]).fold(0.0f64, f64::max);
            start[i] = s;
            finish[i] = s + op.duration;
        }
        let makespan = finish.iter().copied().fold(0.0f64, f64::max);
        Schedule { start, finish, makespan }
    }

    /// Evaluate and fold into per-engine occupancy reports against the
    /// serialized modeled time `serialized`.
    pub fn report(&self, serialized: f64) -> OverlapReport {
        let sched = self.evaluate();
        let makespan = sched.makespan;
        let mut by_engine: BTreeMap<EngineId, EngineReport> = BTreeMap::new();
        // chain finish per engine (ops iterate in recording order, which
        // is chain order per engine)
        let mut chain_finish: BTreeMap<EngineId, f64> = BTreeMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            let e = by_engine.entry(op.engine).or_insert_with(|| EngineReport::new(op.engine));
            e.busy += op.duration;
            e.ops += 1;
            let avail = chain_finish.get(&op.engine).copied().unwrap_or(0.0);
            let waited = (sched.start[i] - avail).max(0.0);
            if waited > 0.0 {
                // binding dependency: first listed dep achieving the start
                let binding = op
                    .deps
                    .iter()
                    .find(|d| sched.finish[d.index()] == sched.start[i])
                    .map(|d| self.ops[d.index()].engine);
                if binding.is_some_and(|b| b.is_transfer()) {
                    e.stall_transfer += waited;
                } else {
                    e.stall_other += waited;
                }
            }
            chain_finish.insert(op.engine, sched.finish[i]);
        }
        for (eng, rep) in &mut by_engine {
            let end = chain_finish.get(eng).copied().unwrap_or(0.0);
            rep.idle = (makespan - end).max(0.0);
        }
        OverlapReport { makespan, serialized, engines: by_engine.into_values().collect() }
    }
}

/// Evaluated start/finish times (seconds) per op, by dense op index.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Earliest start per op.
    pub start: Vec<f64>,
    /// Finish per op (`start + duration`).
    pub finish: Vec<f64>,
    /// Critical-path end: the overlapped modeled time.
    pub makespan: f64,
}

/// Occupancy of one engine over the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// The engine.
    pub engine: EngineId,
    /// Seconds occupied by ops.
    pub busy: f64,
    /// Seconds spent waiting (beyond same-engine serialization) on a
    /// dependency whose binding op ran on a transfer engine (H2D, D2H or
    /// an interconnect link).
    pub stall_transfer: f64,
    /// Seconds spent waiting on a compute or CPU dependency.
    pub stall_other: f64,
    /// Seconds between this engine's last finish and the makespan.
    pub idle: f64,
    /// Ops recorded on this engine.
    pub ops: usize,
}

impl EngineReport {
    fn new(engine: EngineId) -> Self {
        EngineReport { engine, busy: 0.0, stall_transfer: 0.0, stall_other: 0.0, idle: 0.0, ops: 0 }
    }
}

/// The overlap-aware execution summary attached to a partition result:
/// the critical-path makespan, the serialized reference time, and the
/// per-engine occupancy/stall ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapReport {
    /// Overlapped end-to-end modeled seconds (DAG critical path).
    pub makespan: f64,
    /// Serialized modeled seconds (the running-sum ledger total).
    pub serialized: f64,
    /// Per-engine occupancy, sorted by engine.
    pub engines: Vec<EngineReport>,
}

impl OverlapReport {
    /// `serialized / makespan` (1.0 when nothing overlaps).
    pub fn speedup(&self) -> f64 {
        if self.makespan > 0.0 {
            self.serialized / self.makespan
        } else {
            1.0
        }
    }

    /// Fraction of compute-engine time lost waiting on transfers:
    /// `sum(compute stall_transfer) / (compute engines * makespan)`.
    pub fn transfer_stall_fraction(&self) -> f64 {
        let computes: Vec<&EngineReport> =
            self.engines.iter().filter(|e| matches!(e.engine, EngineId::Compute(_))).collect();
        if computes.is_empty() || self.makespan <= 0.0 {
            return 0.0;
        }
        let stall: f64 = computes.iter().map(|e| e.stall_transfer).sum();
        stall / (computes.len() as f64 * self.makespan)
    }

    /// The report for `engine`, if any op ran on it.
    pub fn engine(&self, engine: EngineId) -> Option<&EngineReport> {
        self.engines.iter().find(|e| e.engine == engine)
    }

    /// Human-readable per-engine occupancy table (the `--timeline` view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "timeline: overlapped {:.6}s vs serialized {:.6}s (speedup {:.3}x)\n",
            self.makespan,
            self.serialized,
            self.speedup()
        ));
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>12} {:>12} {:>6}\n",
            "engine", "busy_s", "stall_xfer_s", "stall_other", "idle_s", "ops"
        ));
        for e in &self.engines {
            out.push_str(&format!(
                "{:<10} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>6}\n",
                e.engine.name(),
                e.busy,
                e.stall_transfer,
                e.stall_other,
                e.idle,
                e.ops
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EngineId::{Compute, Cpu, Link, D2H, H2D};

    #[test]
    fn empty_timeline_has_zero_makespan() {
        let t = Timeline::new();
        assert_eq!(t.evaluate().makespan, 0.0);
        assert!(t.is_empty());
        let r = t.report(0.0);
        assert!(r.engines.is_empty());
        assert_eq!(r.speedup(), 1.0);
    }

    #[test]
    fn same_engine_ops_serialize() {
        let mut t = Timeline::new();
        t.record(Compute(0), "a", 1.0, &[]);
        t.record(Compute(0), "b", 2.0, &[]);
        assert_eq!(t.evaluate().makespan, 3.0);
    }

    #[test]
    fn different_engines_overlap() {
        let mut t = Timeline::new();
        t.record(Compute(0), "a", 2.0, &[]);
        t.record(H2D(0), "x", 1.5, &[]);
        let s = t.evaluate();
        assert_eq!(s.makespan, 2.0);
        assert_eq!(s.start[1], 0.0);
    }

    #[test]
    fn dependencies_order_across_engines() {
        let mut t = Timeline::new();
        let up = t.record(H2D(0), "h2d", 1.0, &[]);
        let k = t.record(Compute(0), "kernel", 2.0, &[up]);
        let down = t.record(D2H(0), "d2h", 0.5, &[k]);
        let s = t.evaluate();
        assert_eq!(s.start[k.index()], 1.0);
        assert_eq!(s.start[down.index()], 3.0);
        assert_eq!(s.makespan, 3.5);
    }

    #[test]
    fn double_buffered_uploads_hide_behind_compute() {
        // classic double buffering: chunk 2's upload overlaps chunk 1's
        // kernel; serialized = 4.0, overlapped = upload + both kernels
        let mut t = Timeline::new();
        let u1 = t.record(H2D(0), "up1", 1.0, &[]);
        let u2 = t.record(H2D(0), "up2", 1.0, &[]);
        let k1 = t.record(Compute(0), "k1", 1.0, &[u1]);
        let k2 = t.record(Compute(0), "k2", 1.0, &[u2, k1]);
        let s = t.evaluate();
        assert_eq!(s.start[k2.index()], 2.0);
        assert_eq!(s.makespan, 3.0);
    }

    #[test]
    fn makespan_never_exceeds_serialized_sum() {
        // arbitrary DAG: critical path <= sum of durations
        let mut t = Timeline::new();
        let mut sum = 0.0;
        let mut prev: Vec<EventId> = Vec::new();
        let engines = [Compute(0), Compute(1), H2D(0), Link(0, 1), Cpu];
        let mut seed = 0x9e3779b97f4a7c15u64;
        for i in 0..100 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let dur = (seed % 1000) as f64 * 1e-6;
            sum += dur;
            let deps: Vec<EventId> =
                prev.iter().copied().filter(|d| d.index() % 3 == i % 3).collect();
            let id = t.record(engines[i % engines.len()], "op", dur, &deps);
            prev.push(id);
        }
        let s = t.evaluate();
        assert!(s.makespan <= sum + 1e-12, "makespan {} > sum {}", s.makespan, sum);
    }

    #[test]
    fn report_busy_stall_idle_partition_the_makespan() {
        let mut t = Timeline::new();
        let up = t.record(H2D(0), "h2d", 1.0, &[]);
        let k = t.record(Compute(0), "kernel", 2.0, &[up]);
        t.record(D2H(0), "d2h", 0.5, &[k]);
        let r = t.report(3.5);
        assert_eq!(r.makespan, 3.5);
        let c = r.engine(Compute(0)).unwrap();
        // compute waited 1.0s on the upload (a transfer stall)
        assert_eq!(c.stall_transfer, 1.0);
        assert_eq!(c.stall_other, 0.0);
        assert_eq!(c.busy, 2.0);
        assert_eq!(c.idle, 0.5);
        let d = r.engine(D2H(0)).unwrap();
        // d2h waited on compute: not a transfer stall
        assert_eq!(d.stall_other, 3.0);
        assert_eq!(d.idle, 0.0);
        assert!((r.speedup() - 1.0).abs() < 1e-12);
        let txt = r.render();
        assert!(txt.contains("compute0"));
        assert!(txt.contains("speedup"));
    }

    /// The critical-path evaluator is order-independent: any topological
    /// insertion order of the same ops (per-engine relative order fixed)
    /// evaluates to a bit-identical schedule.
    #[test]
    fn evaluation_is_insertion_order_independent() {
        // Logical DAG, engine-major description: per engine a chain of
        // (duration, cross-deps) where cross-deps name (engine_idx, op_idx).
        type Spec = Vec<Vec<(f64, Vec<(usize, usize)>)>>;
        let engines = [H2D(0), Compute(0), Compute(1), Link(0, 1), Cpu];
        let spec: Spec = vec![
            vec![(1.0, vec![]), (0.5, vec![])],
            vec![(2.0, vec![(0, 0)]), (1.0, vec![(0, 1)]), (3.0, vec![(4, 0)])],
            vec![(1.5, vec![(0, 0)]), (2.5, vec![(3, 0)])],
            vec![(0.25, vec![(1, 0)])],
            vec![(0.75, vec![(2, 0)]), (0.1, vec![(1, 1), (2, 1)])],
        ];
        // Build under one interleaving of engine queues.
        let build = |order: &[(usize, usize)]| -> Schedule {
            let mut t = Timeline::new();
            let mut ids: Vec<Vec<Option<EventId>>> =
                spec.iter().map(|ch| vec![None; ch.len()]).collect();
            for &(e, i) in order {
                let (dur, ref deps) = spec[e][i];
                let dep_ids: Vec<EventId> =
                    deps.iter().map(|&(de, di)| ids[de][di].expect("topological order")).collect();
                ids[e][i] = Some(t.record(engines[e], "op", dur, &dep_ids));
            }
            t.evaluate()
        };
        // Several topological insertion orders (per-engine order ascending,
        // cross-deps recorded first).
        let orders: Vec<Vec<(usize, usize)>> = vec![
            // engine-major
            vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0), (2, 1), (4, 0), (1, 2), (4, 1)],
            // breadth-first-ish
            vec![(0, 0), (1, 0), (2, 0), (0, 1), (3, 0), (4, 0), (1, 1), (2, 1), (1, 2), (4, 1)],
            // lazy: delay engine 0's second op as long as possible
            vec![(0, 0), (1, 0), (3, 0), (2, 0), (4, 0), (2, 1), (0, 1), (1, 1), (1, 2), (4, 1)],
        ];
        let reference = build(&orders[0]);
        assert!(reference.makespan > 0.0);
        for order in &orders[1..] {
            let s = build(order);
            assert_eq!(s.makespan.to_bits(), reference.makespan.to_bits());
            // per-op times must match too, matched up by (engine, index)
        }
    }

    #[test]
    fn transfer_stall_fraction_reflects_hidden_transfers() {
        // serialized transfers stall compute; overlapped ones don't
        let mut blocked = Timeline::new();
        let u = blocked.record(H2D(0), "up", 1.0, &[]);
        blocked.record(Compute(0), "k", 1.0, &[u]);
        let rb = blocked.report(2.0);
        assert!(rb.transfer_stall_fraction() > 0.0);

        let mut hidden = Timeline::new();
        hidden.record(Compute(0), "k0", 1.0, &[]);
        let u = hidden.record(H2D(0), "up", 0.5, &[]);
        hidden.record(Compute(0), "k1", 1.0, &[u]);
        let rh = hidden.report(2.5);
        assert_eq!(rh.transfer_stall_fraction(), 0.0);
        assert!(rh.speedup() > 1.0);
    }

    #[test]
    fn negative_durations_clamp_to_zero() {
        let mut t = Timeline::new();
        t.record(Cpu, "noop", -1.0, &[]);
        assert_eq!(t.evaluate().makespan, 0.0);
    }
}
