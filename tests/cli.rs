//! Integration test of the `gpartition` command-line tool: write a graph
//! file, partition it with every engine, read the partition back.

use gp_metis_repro::graph::gen::delaunay_like;
use gp_metis_repro::graph::io::write_metis_file;
use gp_metis_repro::graph::metrics::validate_partition;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_gpartition")
}

#[test]
fn cli_partitions_with_every_engine() {
    let dir = std::env::temp_dir().join("gpm_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let g = delaunay_like(2_000, 3);
    let graph_path = dir.join("g.graph");
    write_metis_file(&g, &graph_path).unwrap();

    for algo in ["metis", "mtmetis", "parmetis", "gpmetis"] {
        let part_path = dir.join(format!("g.{algo}.part"));
        let out = Command::new(bin())
            .args([
                graph_path.to_str().unwrap(),
                "8",
                "--algo",
                algo,
                "--threads",
                "2",
                "--ranks",
                "2",
                "--quiet",
                "--output",
                part_path.to_str().unwrap(),
            ])
            .output()
            .expect("spawn gpartition");
        assert!(out.status.success(), "{algo}: {}", String::from_utf8_lossy(&out.stderr));
        let text = std::fs::read_to_string(&part_path).unwrap();
        let part: Vec<u32> = text.lines().map(|l| l.parse().unwrap()).collect();
        validate_partition(&g, &part, 8, 1.30).unwrap_or_else(|e| panic!("{algo}: {e}"));
        std::fs::remove_file(&part_path).ok();
    }
    std::fs::remove_file(&graph_path).ok();
}

#[test]
fn cli_summary_line_on_stdout() {
    let dir = std::env::temp_dir().join("gpm_cli_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let g = delaunay_like(1_000, 5);
    let graph_path = dir.join("g.graph");
    write_metis_file(&g, &graph_path).unwrap();
    let out = Command::new(bin())
        .args([graph_path.to_str().unwrap(), "4", "--algo", "metis", "--quiet"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = stdout.split_whitespace().collect();
    assert_eq!(fields.len(), 3, "stdout: {stdout}");
    assert_eq!(fields[0], "4");
    assert!(fields[1].parse::<u64>().unwrap() > 0); // cut
    assert!(fields[2].parse::<f64>().unwrap() > 0.0); // modeled seconds
    std::fs::remove_file(&graph_path).ok();
}

#[test]
fn cli_rejects_engine_flags_it_would_ignore() {
    let dir = std::env::temp_dir().join("gpm_cli_test3");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("g.graph");
    write_metis_file(&delaunay_like(500, 7), &graph_path).unwrap();
    let run = |flags: &[&str]| {
        let mut args = vec![graph_path.to_str().unwrap(), "4", "--quiet"];
        args.extend_from_slice(flags);
        Command::new(bin()).args(&args).output().unwrap()
    };
    // (flags, the flag the error must name)
    for (flags, named) in [
        (&["--algo", "metis", "--devices", "4"][..], "--devices"),
        (&["--algo", "mtmetis", "--fallback", "--gpu-threshold", "10"], "--fallback"),
        (&["--algo", "mtmetis", "--fallback", "--gpu-threshold", "10"], "--gpu-threshold"),
        (&["--algo", "parmetis", "--interconnect", "nvlink"], "--interconnect"),
        (&["--interconnect", "warp9"], "--interconnect"),
    ] {
        let out = run(flags);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flags:?} must be rejected");
        assert!(err.contains(named), "{flags:?}: error must name {named}: {err}");
    }
    // the engine flags still work where they apply
    let out = run(&["--devices", "2", "--interconnect", "nvlink", "--gpu-threshold", "100"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(&graph_path).ok();
}

#[test]
fn cli_loadgen_rejects_gpmetis_only_flags_before_connecting() {
    let dir = std::env::temp_dir().join("gpm_cli_test6");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("g.graph");
    write_metis_file(&delaunay_like(200, 7), &graph_path).unwrap();
    // nothing listens on port 1: reaching the connect step would fail
    // with "cannot connect", so the flag error proves the check runs first
    let out = Command::new(env!("CARGO_BIN_EXE_gpm-loadgen"))
        .args(["submit", "127.0.0.1:1", graph_path.to_str().unwrap(), "8", "--algo", "metis"])
        .args(["--fallback", "--gpu-threshold", "7"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("error: --algo metis does not take --fallback, --gpu-threshold"), "{err}");
    std::fs::remove_file(&graph_path).ok();
}

#[test]
fn cli_rejects_bad_input() {
    let out = Command::new(bin()).args(["/nonexistent/x.graph", "4", "--quiet"]).output().unwrap();
    assert!(!out.status.success());
    let out = Command::new(bin()).args(["--help-me"]).output().unwrap();
    assert!(!out.status.success());
    // edge (2, 3) is listed only in vertex 2's line: rejected, not repaired
    let dir = std::env::temp_dir().join("gpm_cli_test6");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("one_sided.graph");
    std::fs::write(&graph_path, "3 2\n2\n1 3\n\n").unwrap();
    let path = graph_path.to_str().unwrap();
    let out = Command::new(bin()).args([path, "2", "--algo", "metis"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("error: parse error") && !err.contains("panicked"), "{err}");
    // the retired loader flags (mmap, compressed) are unknown options
    for flag in ["mmap", "compressed"].map(|f| format!("--{f}")) {
        let out = Command::new(bin()).args([path, "2", &flag]).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(err.starts_with("usage: gpartition"), "{flag}: {err}");
    }
    std::fs::remove_file(&graph_path).ok();
}

#[test]
fn cli_rejects_out_of_domain_options() {
    let dir = std::env::temp_dir().join("gpm_cli_test4");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("g.graph");
    write_metis_file(&delaunay_like(500, 7), &graph_path).unwrap();
    // (k, flags, the field the error must name)
    for (k, flags, named) in [
        ("4", &["--algo", "mtmetis", "--threads", "0"][..], "threads"),
        ("4", &["--algo", "parmetis", "--ranks", "0"], "ranks"),
        ("4", &["--ub", "nan"], "ub"),
        ("4", &["--ub", "0.5"], "ub"),
        ("501", &["--algo", "metis"], "k 501"),
        ("4", &["--gpu-threshold", "0"], "--gpu-threshold"),
    ] {
        let mut args = vec![graph_path.to_str().unwrap(), k, "--quiet"];
        args.extend_from_slice(flags);
        let out = Command::new(bin()).args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{k} {flags:?}: {err}");
        assert!(err.starts_with("error: ") && err.contains(named), "{k} {flags:?}: {err}");
        assert!(!err.contains("panicked at"), "{k} {flags:?}: {err}");
    }
    std::fs::remove_file(&graph_path).ok();
}

#[test]
fn cli_parmetis_rank_crash_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join("gpm_cli_test5");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("g.graph");
    write_metis_file(&delaunay_like(500, 7), &graph_path).unwrap();
    let out = Command::new(bin())
        .args([graph_path.to_str().unwrap(), "8", "--quiet", "--algo", "parmetis", "--ranks", "4"])
        .env("GPM_FAULTS", "3:msg.crash.r1@0=crash")
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("error: parmetis cluster failed: rank 1 crashed"), "{err}");
    assert!(!err.contains("panicked"), "a typed abort must not run the panic hook: {err}");
    std::fs::remove_file(&graph_path).ok();
}
