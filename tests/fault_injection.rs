//! End-to-end fault injection: the hybrid pipeline under deterministic
//! fault schedules, driven both in-process (programmatic `FaultPlan`) and
//! through the `gpartition` binary (`GPM_FAULTS` environment), including
//! determinism across `GPM_THREADS` and `GPM_POOL_STEAL_FUZZ`.

use gp_metis_repro::faults::{FaultKind, FaultPlan, Selector};
use gp_metis_repro::gpmetis::{self, GpMetisConfig};
use gp_metis_repro::graph::gen::delaunay_like;
use gp_metis_repro::graph::io::write_metis_file;
use gp_metis_repro::graph::metrics::validate_partition;
use gp_metis_repro::mtmetis;
use std::path::PathBuf;
use std::process::Command;

fn cfg(k: usize) -> GpMetisConfig {
    GpMetisConfig::new(k).with_seed(3).with_gpu_threshold(400).with_fallback(true)
}

#[test]
fn forced_device_loss_degrades_within_quality_envelope() {
    let g = delaunay_like(3_000, 2);
    let plan = FaultPlan::new(7).with("gpu.launch", Selector::One(20), FaultKind::DeviceLost);
    let r = gpmetis::partition_with_plan(&g, &cfg(8), Some(plan)).unwrap();
    assert!(r.report.degraded);
    assert!(r.report.device_error.is_some());
    validate_partition(&g, &r.result.part, 8, 1.12).unwrap();
    // the degraded result must stay inside the CPU engine's quality league
    let mt = mtmetis::partition(
        &g,
        &mtmetis::MtMetisConfig { seed: 3, ..mtmetis::MtMetisConfig::new(8) },
    );
    assert!(
        (r.result.edge_cut as f64) < 1.5 * mt.edge_cut as f64,
        "degraded {} vs mt-metis {}",
        r.result.edge_cut,
        mt.edge_cut
    );
}

#[test]
fn same_plan_same_result() {
    let g = delaunay_like(2_500, 5);
    let plan = || {
        FaultPlan::new(11).with("gpu.h2d", Selector::One(1), FaultKind::TransferError).with(
            "gpu.launch",
            Selector::Range(30, 32),
            FaultKind::KernelAbort,
        )
    };
    let a = gpmetis::partition_with_plan(&g, &cfg(4), Some(plan())).unwrap();
    let b = gpmetis::partition_with_plan(&g, &cfg(4), Some(plan())).unwrap();
    assert_eq!(a.result.part, b.result.part);
    assert_eq!(a.report, b.report);
    assert_eq!(a.result.modeled_seconds().to_bits(), b.result.modeled_seconds().to_bits());
}

#[test]
fn bad_plan_spec_is_a_typed_error() {
    match FaultPlan::parse("7:gpu.launch@8=meteor") {
        Err(e) => assert!(!e.to_string().is_empty()),
        Ok(_) => panic!("nonsense fault kind must not parse"),
    }
    match FaultPlan::parse("not-a-seed:gpu.launch@8=lost") {
        Err(_) => {}
        Ok(_) => panic!("nonsense seed must not parse"),
    }
}

// ---------------------------------------------------------------------
// subprocess runs of the gpartition binary: GPM_FAULTS / GPM_THREADS /
// GPM_POOL_STEAL_FUZZ are read per-process, so cross-environment
// determinism needs fresh processes.
// ---------------------------------------------------------------------

fn test_graph_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gpm_fault_injection_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_metis_file(&delaunay_like(3_000, 2), &path).unwrap();
    path
}

/// Run gpartition on `graph` with the given env pairs; return stdout.
fn run_cli(graph: &PathBuf, extra_args: &[&str], env: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gpartition"));
    cmd.arg(graph).args(["8", "--quiet", "--gpu-threshold", "400", "--seed", "3"]);
    cmd.args(extra_args);
    cmd.env_remove("GPM_FAULTS").env_remove("GPM_THREADS").env_remove("GPM_POOL_STEAL_FUZZ");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "gpartition failed (env {env:?}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn cli_empty_fault_plan_is_byte_identical_to_no_plan() {
    let graph = test_graph_file("ident.graph");
    let clean = run_cli(&graph, &[], &[]);
    // a set-but-empty plan must not perturb the partition or the modeled
    // times (the summary line carries both the cut and the modeled time)
    let empty = run_cli(&graph, &[], &[("GPM_FAULTS", "1:")]);
    assert_eq!(clean, empty, "empty fault plan changed the run");
}

#[test]
fn cli_degraded_run_is_deterministic_across_thread_counts() {
    let graph = test_graph_file("threads.graph");
    let fault_env = ("GPM_FAULTS", "7:gpu.launch@20=lost");
    let baseline = run_cli(&graph, &["--fallback"], &[fault_env, ("GPM_THREADS", "1")]);
    for threads in ["4", "8"] {
        let out = run_cli(&graph, &["--fallback"], &[fault_env, ("GPM_THREADS", threads)]);
        assert_eq!(baseline, out, "GPM_THREADS={threads} changed the degraded result");
    }
    let fuzzed = run_cli(
        &graph,
        &["--fallback"],
        &[fault_env, ("GPM_THREADS", "8"), ("GPM_POOL_STEAL_FUZZ", "1")],
    );
    assert_eq!(baseline, fuzzed, "steal-order fuzzing changed the degraded result");
}

#[test]
fn cli_transient_faults_do_not_change_the_partition() {
    let graph = test_graph_file("transient.graph");
    let dir = std::env::temp_dir().join("gpm_fault_injection_tests");
    let clean_part = dir.join("clean.part");
    let fault_part = dir.join("fault.part");
    run_cli(&graph, &["--output", clean_part.to_str().unwrap()], &[]);
    run_cli(
        &graph,
        &["--output", fault_part.to_str().unwrap()],
        &[("GPM_FAULTS", "3:gpu.h2d@1=transfer,gpu.launch@5=abort")],
    );
    let a = std::fs::read(&clean_part).unwrap();
    let b = std::fs::read(&fault_part).unwrap();
    assert_eq!(a, b, "transient faults must be absorbed by retry");
}

#[test]
fn cli_rejects_a_malformed_fault_plan() {
    let graph = test_graph_file("badplan.graph");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gpartition"));
    cmd.arg(&graph).args(["8", "--quiet", "--gpu-threshold", "400"]);
    cmd.env("GPM_FAULTS", "7:gpu.launch@8=meteor");
    let out = cmd.output().unwrap();
    assert!(!out.status.success(), "malformed GPM_FAULTS must fail the run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("GPM_FAULTS"), "error should name the variable: {err}");
}

#[test]
fn cli_multi_gpu_rejects_fault_plans() {
    let graph = test_graph_file("multigpu.graph");
    let cases = [
        ("garbage", false, "invalid GPM_FAULTS"),
        ("7:gpu.launch@8=lost", false, "single device"),
        ("", true, "single device"),
    ];
    for (plan, fallback, why) in cases {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_gpartition"));
        cmd.arg(&graph).args(["8", "--quiet", "--gpu-threshold", "400", "--devices", "2"]);
        if fallback {
            cmd.arg("--fallback");
        }
        cmd.env_remove("GPM_FAULTS");
        if !plan.is_empty() {
            cmd.env("GPM_FAULTS", plan);
        }
        let out = cmd.output().unwrap();
        assert!(!out.status.success(), "plan {plan:?} fallback={fallback} must fail at D=2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(why), "plan {plan:?} fallback={fallback}: {err}");
    }
}
