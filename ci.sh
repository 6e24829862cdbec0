#!/usr/bin/env bash
# Hermetic CI gate: the one definition of every check, run as-is both
# locally and by .github/workflows/ci.yml. Everything runs with
# --offline: the workspace has path-only dependencies by policy (see
# DESIGN.md, "Hermetic build policy") and must never reach the network.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n=== %s ===\n' "$*"; }

step "build (release, offline, whole workspace)"
# --workspace matters: a bare `cargo build` at the root builds only the
# root package and leaves stale bench/eval binaries in target/release.
cargo build --release --offline --workspace

step "tests (offline)"
cargo test -q --offline --workspace

step "formatting"
cargo fmt --check

step "clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

step "hermetic manifest check (no registry dependencies)"
if grep -rn 'rand\|proptest\|criterion\|crossbeam\|parking_lot' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: registry dependency found in a manifest" >&2
    exit 1
fi

step "determinism smoke (two identical evaluation runs)"
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
GPM_SCALE=tiny ./target/release/evaluation > "$smoke/run1.txt"
GPM_SCALE=tiny ./target/release/evaluation > "$smoke/run2.txt"
if ! diff -u "$smoke/run1.txt" "$smoke/run2.txt"; then
    echo "ERROR: evaluation output differs between identical runs" >&2
    exit 1
fi
echo "evaluation output is bit-identical across runs"

step "paper tables (regenerate eval_small.txt, byte-for-byte)"
# The committed tables are the default run (small scale, one run). A
# change that moves a number regenerates the file and says why.
env -u GPM_SCALE -u GPM_RUNS ./target/release/evaluation > "$smoke/eval_small.txt" 2> /dev/null
if ! diff -u eval_small.txt "$smoke/eval_small.txt"; then
    echo "ERROR: eval_small.txt differs from a fresh evaluation run" >&2
    exit 1
fi
echo "eval_small.txt regenerates byte-identically"

step "ablation tables (regenerate ablations.txt, byte-for-byte)"
# The committed file is each ablation binary's default run, in this
# order, with a header line before every section but the first and last.
{
    rel=./target/release
    "$rel/ablation_coalescing"
    echo "===CONTRACTION===";  "$rel/ablation_contraction"
    echo "===THRESHOLD===";    "$rel/ablation_threshold"
    echo "===ROUNDS===";       "$rel/ablation_match_rounds"
    echo "===SCALING===";      "$rel/ablation_scaling"
    echo "===LOCALITY===";     "$rel/ablation_locality"
    "$rel/ablation_mode"
} > "$smoke/ablations.txt" 2> /dev/null
if ! diff -u ablations.txt "$smoke/ablations.txt"; then
    echo "ERROR: ablations.txt differs from a fresh run of the ablation binaries" >&2
    exit 1
fi
echo "ablations.txt regenerates byte-identically"

step "fault-injection smoke (gpm-faults: retry, degradation, identity)"
cargo run --release --offline -q --example degraded_pipeline > "$smoke/degraded.txt"
grep -q "degraded : " "$smoke/degraded.txt"
gp=./target/release/gpartition
graph="$smoke/fault_smoke.graph"
# a 60x60 grid in Metis format, emitted inline (deterministic input)
awk 'BEGIN {
    nx=60; ny=60; n=nx*ny; m=2*nx*ny-nx-ny;
    print n, m;
    for (y=0; y<ny; y++) for (x=0; x<nx; x++) {
        u=y*nx+x; line="";
        if (x>0)    line=line (u) " ";
        if (x<nx-1) line=line (u+2) " ";
        if (y>0)    line=line (u-nx+1) " ";
        if (y<ny-1) line=line (u+nx+1) " ";
        print line;
    }
}' > "$graph"
run_gp() { "$gp" "$graph" 8 --quiet --gpu-threshold 400 --seed 3 "$@"; }
# 1. transient faults are retried and absorbed: exit 0, same partition
run_gp --output "$smoke/clean.part"
GPM_FAULTS="3:gpu.h2d@1=transfer" run_gp --output "$smoke/transient.part"
diff -q "$smoke/clean.part" "$smoke/transient.part"
echo "transient faults absorbed by retry"
# 2. forced degradation completes with a valid run (exit 0 + notice)
GPM_FAULTS="7:gpu.launch@8=lost" run_gp --fallback > "$smoke/degraded_summary.txt" \
    2> "$smoke/degraded_err.txt"
grep -q "degraded" "$smoke/degraded_err.txt"
echo "forced device loss degraded to CPU and completed"
# 3. an empty plan is byte-identical to no plan (partitions + times)
run_gp > "$smoke/noplan.txt"
GPM_FAULTS="1:" run_gp > "$smoke/emptyplan.txt"
diff -u "$smoke/noplan.txt" "$smoke/emptyplan.txt"
echo "empty fault plan is byte-identical to no plan"

step "pool smoke (wake protocol spinning and parking; dispatch bench, validated JSON)"
# The pool's unit tests, wake-protocol stress included, once per wake
# path of the global pool: GPM_THREADS=1 fits one participant per core on
# any host with two or more cores, so idle threads spin before they park;
# GPM_THREADS=8 oversubscribes hosts with fewer than nine cores, so they
# park at once (the tests' dedicated pools force both paths regardless).
GPM_THREADS=1 cargo test -q --offline -p gpm-pool
GPM_THREADS=8 GPM_POOL_STEAL_FUZZ=1 cargo test -q --offline -p gpm-pool
# A panic in the bench binary fails this line; the validator then rejects
# malformed or truncated output, so a half-written JSON cannot pass.
GPM_BENCH_WARMUP=0 GPM_BENCH_ITERS=1 GPM_BENCH_SCALE=0.05 GPM_BENCH_DIR="$smoke" \
    cargo bench --offline -p gpm-bench --bench pool
./target/release/validate_bench "$smoke/BENCH_pool.json"

step "refine-perf smoke (boundary layer: bench JSON)"
# The refiners' golden-digest suites (refine_identity, prefine_identity,
# drefine_identity, gpu_refine_identity) ran in the workspace test step:
# each pins partitions, stats, Work/RankPhase ledgers and kernel logs as
# a committed FNV-1a digest over a fixed case matrix.
GPM_BENCH_WARMUP=0 GPM_BENCH_ITERS=1 GPM_BENCH_SCALE=0.05 GPM_BENCH_DIR="$smoke" \
    cargo bench --offline -p gpm-bench --bench refine
./target/release/validate_bench "$smoke/BENCH_refine.json"

step "coarsen-perf smoke (parallel contraction digests across workers + bench JSON)"
# The contraction digest and allocation suites (contract_identity,
# coarsen_alloc, dcontract_identity, gpu_contract_identity) ran in the
# workspace test step; the parallel contraction's digests re-run here
# under several physical worker counts, which must not move them.
for t in 1 4 8; do
    GPM_THREADS=$t cargo test -q --offline -p gpm-mtmetis --test pcontract_identity
done
GPM_BENCH_WARMUP=0 GPM_BENCH_ITERS=1 GPM_BENCH_SCALE=0.05 GPM_BENCH_DIR="$smoke" \
    cargo bench --offline -p gpm-bench --bench coarsen
./target/release/validate_bench "$smoke/BENCH_coarsen.json"

step "committed bench baselines (schema-check every BENCH_*.json in the repo)"
# --all discovers the baselines from the directory, so a newly committed
# BENCH_*.json can never be missing from a hand-maintained list.
./target/release/validate_bench --all crates/bench

step "scale-smoke (out-of-core loader: u64 build, peak-RSS assertion, identity)"
# The scale bench generates ~1M/5M/10M-edge grids and asserts only that
# the streaming loader's peak heap stays within 2x the CSR it builds (it
# panics otherwise). Run it under the u64-index build so the whole
# out-of-core path is exercised at width 64; the separate target dir
# keeps the default-feature artifacts warm.
GPM_BENCH_WARMUP=0 GPM_BENCH_ITERS=1 GPM_BENCH_SCALE=0.1 GPM_BENCH_DIR="$smoke" \
    cargo bench --offline -p gpm-bench --bench scale --features idx64 \
    --target-dir target/idx64
./target/release/validate_bench "$smoke/BENCH_scale.json"
# u32-vs-u64 identity: the same job must produce the same partition bytes
cargo build --release --offline --features idx64 --bin gpartition \
    --target-dir target/idx64
./target/idx64/release/gpartition "$graph" 8 --quiet --gpu-threshold 400 \
    --seed 3 --output "$smoke/u64.part"
diff -q "$smoke/clean.part" "$smoke/u64.part"
echo "u64-index partition is byte-identical to the u32 build"
# gpm-graph alone decides the index width: a crate-scoped u64 build
# (here the daemon and its tests) must compile without the root feature
cargo check --offline -p gpm-serve --tests --features gpm-graph/idx64 \
    --target-dir target/idx64
# --eval scores an existing partition instead of computing one
"$gp" "$graph" 8 --eval "$smoke/clean.part" | grep -q "^8 "
echo "--eval scores the committed partition"

step "multigpu-smoke (sharded pipeline: D=1 identity, device sweep)"
# --devices 1 must be byte-identical to the single-GPU run (partition AND
# the stdout summary, which carries the modeled-time total); the device
# sweep must be deterministic across GPM_THREADS and steal fuzz (the
# per-device loops really run concurrently on the pool). The scaling
# claims ran in the workspace test step: per-device peak ~ 1/D and
# modeled time beating D=1 in gp-metis's tests/overlap.rs, p2p beating
# staged in its multi_gpu unit tests.
run_gp --devices 1 --output "$smoke/mg1.part"
diff -q "$smoke/clean.part" "$smoke/mg1.part"
run_gp --devices 1 > "$smoke/mg1.txt"
diff -u "$smoke/noplan.txt" "$smoke/mg1.txt"
echo "--devices 1 is byte-identical to the single-GPU run (partition + modeled time)"
for dd in 2 4; do
    run_gp --devices "$dd" --output "$smoke/mg_d${dd}_ref.part"
done
for t in 1 4 8; do
    GPM_THREADS=$t run_gp --devices 2 --output "$smoke/mg_t$t.part"
    diff -q "$smoke/mg_d2_ref.part" "$smoke/mg_t$t.part"
done
GPM_THREADS=8 GPM_POOL_STEAL_FUZZ=1 run_gp --devices 2 --output "$smoke/mg_fuzz2.part"
diff -q "$smoke/mg_d2_ref.part" "$smoke/mg_fuzz2.part"
GPM_THREADS=8 GPM_POOL_STEAL_FUZZ=1 run_gp --devices 4 --output "$smoke/mg_fuzz4.part"
diff -q "$smoke/mg_d4_ref.part" "$smoke/mg_fuzz4.part"
echo "device sweep deterministic under GPM_THREADS in {1,4,8} and steal fuzz"
# the nvlink fabric prices the exchange but must not change the answer
run_gp --devices 2 --interconnect nvlink --output "$smoke/mg_nv.part"
diff -q "$smoke/mg_d2_ref.part" "$smoke/mg_nv.part"
echo "interconnect model does not change the partition"
# zero devices is a typed configuration error, not a crash
if run_gp --devices 0 2> "$smoke/mg_err.txt"; then
    echo "--devices 0 should have been rejected" >&2
    exit 1
fi
grep -q "invalid configuration: device count must be at least 1" "$smoke/mg_err.txt"
echo "--devices 0 rejected with a typed error"
# the sharded pipeline has no fault sites: a malformed plan, an active
# plan and --fallback are all rejected at D >= 2, never silently ignored
if GPM_FAULTS=garbage run_gp --devices 2 2> "$smoke/mg_err.txt"; then
    echo "malformed GPM_FAULTS at --devices 2 should have been rejected" >&2
    exit 1
fi
grep -q "invalid GPM_FAULTS" "$smoke/mg_err.txt"
if GPM_FAULTS="7:gpu.launch@8=lost" run_gp --devices 2 --fallback 2> "$smoke/mg_err.txt"; then
    echo "fault plan at --devices 2 should have been rejected" >&2
    exit 1
fi
grep -q "invalid configuration: fault injection and fallback need a single device" \
    "$smoke/mg_err.txt"
echo "fault plans and --fallback rejected at --devices 2 with typed errors"

step "overlap-smoke (overlap timeline: schedule determinism)"
# The rendered schedule must be bit-identical across GPM_THREADS and
# steal fuzz, on the sharded path and on the single-GPU path, clean and
# with armed checkpoints (a transient fault arms them and is retried
# away; each level's checkpoint download then streams behind the next
# level's kernels, so that schedule must overlap).
timeline_case() { # timeline_case <name> [run_gp args...]; the caller's env applies
    local name=$1; shift
    for t in 1 4 8; do
        GPM_THREADS=$t run_gp "$@" --timeline > /dev/null 2> "$smoke/ov_${name}_t$t.txt"
    done
    GPM_THREADS=8 GPM_POOL_STEAL_FUZZ=1 run_gp "$@" --timeline \
        > /dev/null 2> "$smoke/ov_${name}_fuzz.txt"
    for v in t4 t8 fuzz; do
        diff -u "$smoke/ov_${name}_t1.txt" "$smoke/ov_${name}_$v.txt"
    done
    grep -q "^engine" "$smoke/ov_${name}_t1.txt"
    grep -q "overlapped" "$smoke/ov_${name}_t1.txt"
}
timeline_case mg2 --devices 2
timeline_case single
GPM_FAULTS="3:gpu.h2d@1=transfer" timeline_case ckpt --fallback
if grep -q "speedup 1.000x" "$smoke/ov_ckpt_t1.txt"; then
    echo "ERROR: checkpointed single-GPU schedule did not overlap" >&2
    exit 1
fi
echo "--timeline schedule is bit-identical under GPM_THREADS in {1,4,8} and steal fuzz" \
    "(--devices 2, single GPU, checkpointed single GPU)"

step "simulator accounting matrix (kernel-log golden + overlap pins across host workers)"
# The coalescing replay keeps its scratch table per host worker. The
# pinned kernel-log accounting (every KernelStats field of whole runs)
# and the overlap seed pins must not depend on which worker ran which
# warp group, or in what order.
for t in 1 4 8; do
    GPM_THREADS=$t cargo test -q --offline -p gp-metis-repro --test gpu_pipeline \
        kernel_log_accounting_is_pinned
    GPM_THREADS=$t cargo test -q --offline -p gp-metis --test overlap
done
GPM_THREADS=8 GPM_POOL_STEAL_FUZZ=1 cargo test -q --offline -p gp-metis-repro \
    --test gpu_pipeline kernel_log_accounting_is_pinned
GPM_THREADS=8 GPM_POOL_STEAL_FUZZ=1 cargo test -q --offline -p gp-metis --test overlap
echo "simulator accounting identical under GPM_THREADS in {1,4,8} and steal fuzz"

step "serve smoke (daemon: cache hit, forced degradation, deadline, identity)"
serve=./target/release/gpm-serve
loadgen=./target/release/gpm-loadgen
start_daemon() { # start_daemon <port-file> [extra daemon args...]
    local port_file=$1; shift
    rm -f "$port_file"
    "$serve" --addr 127.0.0.1:0 --port-file "$port_file" "$@" &
    daemon_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$port_file" ] && break
        sleep 0.1
    done
    [ -s "$port_file" ] || { echo "ERROR: daemon did not write $port_file" >&2; exit 1; }
    daemon_addr=$(cat "$port_file")
}
start_daemon "$smoke/port" --workers 4 --queue 64 --cache 64 > "$smoke/serve.log" 2>&1
# 1. a served job is byte-identical to the single-shot gpartition run
#    (clean.part was written by the fault smoke above: same graph,
#    k=8, seed 3, gpu-threshold 400)
"$loadgen" submit "$daemon_addr" "$graph" 8 --seed 3 --gpu-threshold 400 \
    --output "$smoke/served.part" 2> "$smoke/submit1.txt"
diff -q "$smoke/clean.part" "$smoke/served.part"
echo "daemon partition is byte-identical to single-shot gpartition"
#    ... and so is every CPU engine's: the daemon maps --algo metis,
#    mtmetis and parmetis as gpartition does. The mtmetis mapping is also
#    the rung that serves breaker-open and failed GP-metis jobs.
for algo in metis mtmetis parmetis; do
    "$gp" "$graph" 8 --quiet --seed 3 --algo "$algo" --output "$smoke/cli_$algo.part"
    "$loadgen" submit "$daemon_addr" "$graph" 8 --seed 3 --algo "$algo" \
        --output "$smoke/served_$algo.part" 2> "$smoke/submit_$algo.txt"
    diff -q "$smoke/cli_$algo.part" "$smoke/served_$algo.part"
done
echo "served metis, mtmetis and parmetis jobs are byte-identical to gpartition --algo"
# 2. the duplicate submission is served from the result cache, still
#    byte-identical
"$loadgen" submit "$daemon_addr" "$graph" 8 --seed 3 --gpu-threshold 400 \
    --output "$smoke/served2.part" 2> "$smoke/submit2.txt"
grep -q "cache_hit=1" "$smoke/submit2.txt"
diff -q "$smoke/clean.part" "$smoke/served2.part"
echo "duplicate job hit the result cache, byte-identical"
# 3. forced degradation (per-job fault plan) matches the single-shot
#    degraded reference
GPM_FAULTS="7:gpu.launch@8=lost" run_gp --fallback --output "$smoke/deg_ref.part"
"$loadgen" submit "$daemon_addr" "$graph" 8 --seed 3 --gpu-threshold 400 \
    --faults "7:gpu.launch@8=lost" --fallback \
    --output "$smoke/deg_served.part" 2> "$smoke/submit3.txt"
grep -q "degraded=1" "$smoke/submit3.txt"
diff -q "$smoke/deg_ref.part" "$smoke/deg_served.part"
echo "forced degradation served, byte-identical to single-shot degraded run"
# 4. a 1 ms deadline on a fresh (uncached) config is rejected explicitly
if "$loadgen" submit "$daemon_addr" "$graph" 8 --seed 77 --gpu-threshold 400 \
    --deadline-ms 1 2> "$smoke/submit4.txt"; then
    echo "ERROR: 1 ms deadline job unexpectedly succeeded" >&2; exit 1
fi
grep -q "deadline-expired" "$smoke/submit4.txt"
echo "deadline expiry rejected explicitly"
# 5. counters confirm what happened, then clean shutdown: exit 0, no
#    leaked threads
"$loadgen" stats "$daemon_addr" > "$smoke/stats.txt"
awk '$1=="cache_hits" && $2>=1 {ok=1} END {exit !ok}' "$smoke/stats.txt"
awk '$1=="deadline_expired" && $2>=1 {ok=1} END {exit !ok}' "$smoke/stats.txt"
awk '$1=="degraded" && $2>=1 {ok=1} END {exit !ok}' "$smoke/stats.txt"
"$loadgen" shutdown "$daemon_addr"
wait "$daemon_pid"
grep -q "clean shutdown" "$smoke/serve.log"
grep -q "0 in flight" "$smoke/serve.log"
echo "daemon exited 0 with a clean-shutdown summary (no leaked threads)"

step "serve determinism matrix (GPM_THREADS x steal fuzz, identical partitions)"
serve_matrix_run() { # serve_matrix_run <label> [env VAR=VAL...]
    local label=$1; shift
    env "$@" "$serve" --addr 127.0.0.1:0 --port-file "$smoke/port_$label" \
        --workers 4 --queue 64 --cache 0 > "$smoke/serve_$label.log" 2>&1 &
    local pid=$!
    for _ in $(seq 1 100); do
        [ -s "$smoke/port_$label" ] && break
        sleep 0.1
    done
    local addr; addr=$(cat "$smoke/port_$label")
    "$loadgen" submit "$addr" "$graph" 8 --seed 3 --gpu-threshold 400 \
        --output "$smoke/m_${label}_a.part" 2>/dev/null
    "$loadgen" submit "$addr" "$graph" 8 --seed 5 --gpu-threshold 400 \
        --output "$smoke/m_${label}_b.part" 2>/dev/null
    "$loadgen" submit "$addr" "$graph" 8 --seed 3 --algo mtmetis \
        --output "$smoke/m_${label}_c.part" 2>/dev/null
    "$loadgen" shutdown "$addr"
    wait "$pid"
}
serve_matrix_run t1 GPM_THREADS=1
serve_matrix_run t4 GPM_THREADS=4
serve_matrix_run t8 GPM_THREADS=8
serve_matrix_run fuzz GPM_THREADS=8 GPM_POOL_STEAL_FUZZ=1
for cfg in t4 t8 fuzz; do
    for j in a b c; do
        diff -q "$smoke/m_t1_$j.part" "$smoke/m_${cfg}_$j.part"
    done
done
echo "served partitions are identical under GPM_THREADS in {1,4,8} and steal fuzz"

step "serve burst smoke (concurrent loadgen burst, zero lost jobs)"
# gpm-loadgen run exits non-zero if any of the 120 jobs goes unanswered.
start_daemon "$smoke/port_bench" --workers 4 --queue 2048 --cache 256 \
    > "$smoke/serve_bench.log" 2>&1
"$loadgen" run --addr "$daemon_addr" --jobs 120 --connections 4 --seed 42
"$loadgen" shutdown "$daemon_addr"
wait "$daemon_pid"
grep -q "clean shutdown" "$smoke/serve_bench.log"
echo "loadgen burst completed with zero lost jobs"

step "chaos smoke (self-healing: panic isolation, quarantine, breaker, hostile clients)"
# One seeded chaos run per GPM_THREADS setting, each against a fresh
# daemon. The harness itself asserts the hard invariants (zero lost
# jobs, healed worker pool, byte-identical partitions vs in-process
# reference runs); CI additionally diffs the three CHAOS-REPORT blocks
# to prove the whole fault schedule is deterministic, and greps each
# daemon log for the respawn evidence and a clean shutdown.
for t in 1 4 8; do
    rm -f "$smoke/port_chaos"
    env GPM_THREADS=$t "$serve" --addr 127.0.0.1:0 --port-file "$smoke/port_chaos" \
        --workers 2 --queue 64 --idle-ms 30000 --read-deadline-ms 30000 \
        --max-frames 300 --breaker 3:8:4 > "$smoke/serve_chaos_$t.log" 2>&1 &
    chaos_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$smoke/port_chaos" ] && break
        sleep 0.1
    done
    env GPM_THREADS=$t "$loadgen" chaos --addr "$(cat "$smoke/port_chaos")" \
        --seed 42 --breaker 3:8:4 > "$smoke/chaos_$t.txt" 2> "$smoke/chaos_${t}_err.txt"
    wait "$chaos_pid"
    grep -q "clean shutdown" "$smoke/serve_chaos_$t.log"
    grep -q "2 panicked, 2 respawns" "$smoke/serve_chaos_$t.log"
done
diff -u "$smoke/chaos_1.txt" "$smoke/chaos_4.txt"
diff -u "$smoke/chaos_4.txt" "$smoke/chaos_8.txt"
echo "chaos report is bit-identical under GPM_THREADS in {1,4,8}; pool self-healed"

step "breaker trip-and-recover smoke (CLI: degraded identity, probe recovery)"
# Trip the daemon's breaker with fatal device faults via the public CLI,
# then confirm cooldown jobs are served CPU-only byte-identical to the
# mtmetis reference, and that a post-cooldown probe restores the full
# hybrid path byte-identical to the clean single-shot run.
start_daemon "$smoke/port_brk" --workers 2 --queue 64 --cache 0 \
    --breaker 2:4:1 > "$smoke/serve_brk.log" 2>&1
# The CPU-only reference: breaker-open GpMetis jobs are served by the
# exact mtmetis configuration an --algo mtmetis submission maps to.
"$loadgen" submit "$daemon_addr" "$graph" 8 --seed 3 --algo mtmetis \
    --output "$smoke/brk_cpu_ref.part" 2>/dev/null
for i in 1 2; do
    "$loadgen" submit "$daemon_addr" "$graph" 8 --seed 3 --gpu-threshold 400 \
        --faults "9:gpu.launch@0=lost" --fallback \
        --output "$smoke/brk_storm_$i.part" 2> "$smoke/brk_storm_$i.txt"
    grep -q "degraded=1" "$smoke/brk_storm_$i.txt"
done
"$loadgen" submit "$daemon_addr" "$graph" 8 --seed 3 --gpu-threshold 400 \
    --output "$smoke/brk_cool.part" 2> "$smoke/brk_cool.txt"
grep -q "degraded=1" "$smoke/brk_cool.txt"
diff -q "$smoke/brk_cpu_ref.part" "$smoke/brk_cool.part"
echo "breaker-open job served CPU-only, byte-identical to mtmetis reference"
"$loadgen" submit "$daemon_addr" "$graph" 8 --seed 3 --gpu-threshold 400 \
    --output "$smoke/brk_probe.part" 2> "$smoke/brk_probe.txt"
grep -q "degraded=0" "$smoke/brk_probe.txt"
diff -q "$smoke/clean.part" "$smoke/brk_probe.part"
"$loadgen" shutdown "$daemon_addr"
wait "$daemon_pid"
grep -q "clean shutdown" "$smoke/serve_brk.log"
echo "half-open probe restored the hybrid path, byte-identical to clean run"

step "examples coverage (cargo build --examples covers every examples/*.rs)"
cargo build --release --offline --examples
for f in examples/*.rs; do
    name=$(basename "$f" .rs)
    if [ ! -x "target/release/examples/$name" ]; then
        echo "ERROR: $f is not built by 'cargo build --examples' (stray file?)" >&2
        exit 1
    fi
done
echo "every file under examples/ builds as a cargo example"

printf '\nci.sh: all checks passed\n'
