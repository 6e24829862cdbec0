//! Integration tests for the self-healing layer: panic isolation and
//! worker respawn, repeat-offender quarantine, the GPU circuit breaker's
//! trip/cooldown/probe cycle and the mt-metis rung behind the engine,
//! connection hardening (idle, slowloris, frame budget), half-close reply
//! delivery, and queue-full back-pressure hints.

use gpm_graph::gen::{grid2d, hexmesh};
use gpm_serve::client::Client;
use gpm_serve::protocol::{self, JobRequest, RejectCode, Response, FT_JOB, FT_STATS};
use gpm_serve::{start, ServeConfig, ServerHandle};
use std::io::Write;

fn serve_with(tweak: impl FnOnce(&mut ServeConfig)) -> (ServerHandle, String) {
    let mut cfg = ServeConfig::default();
    tweak(&mut cfg);
    let h = start(cfg).expect("daemon starts");
    let addr = h.addr().to_string();
    (h, addr)
}

fn job(tag: u64, seed: u64) -> JobRequest {
    let mut req = JobRequest::new(grid2d(20, 20), 4);
    req.tag = tag;
    req.seed = seed;
    req.gpu_threshold = 200;
    req
}

/// A job whose body panics deterministically via the injected
/// `serve.job=panic` fault (the chaos harness's panic site).
fn panic_job(tag: u64, seed: u64) -> JobRequest {
    let mut req = job(tag, seed);
    req.fault_plan_str = "1:serve.job@0=panic".into();
    req.fault_plan = Some(gpm_faults::FaultPlan::parse(&req.fault_plan_str).unwrap());
    req
}

fn get(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_else(|| {
        panic!("stat {name} missing");
    })
}

#[test]
fn panicking_job_yields_typed_reject_and_connection_survives() {
    let (handle, addr) = serve_with(|c| c.workers = 2);
    let mut c = Client::connect(&addr).unwrap();
    match c.submit_wait(&panic_job(1, 5)).unwrap() {
        Response::Reject { tag, code, msg, .. } => {
            assert_eq!(tag, 1);
            assert_eq!(code, RejectCode::JobPanicked);
            assert!(msg.contains("panicked"), "reject should carry the panic payload: {msg}");
        }
        other => panic!("expected JobPanicked reject, got {other:?}"),
    }
    // The same connection is still serviced by the healed pool.
    match c.submit_wait(&job(2, 6)).unwrap() {
        Response::Ok(rep) => assert_eq!(rep.part.len(), 400),
        other => panic!("daemon unhealthy after panic: {other:?}"),
    }
    let stats = c.stats().unwrap();
    assert_eq!(get(&stats, "panicked"), 1);
    assert_eq!(get(&stats, "worker_respawns"), 1);
    assert_eq!(get(&stats, "workers_alive"), 2, "pool healed to configured size");
    drop(c);
    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.panicked, 1);
    assert_eq!(summary.worker_respawns, 1);
    // acceptor + 2 original workers + 1 replacement, all joined.
    assert_eq!(summary.threads_joined, 4);
}

#[test]
fn repeat_offender_is_quarantined_without_touching_the_pool() {
    let (handle, addr) = serve_with(|c| c.workers = 2);
    let mut c = Client::connect(&addr).unwrap();
    // Strike one and strike two: each kills a worker and gets the typed
    // reject; the second announces the quarantine.
    for strike in 1..=2u64 {
        match c.submit_wait(&panic_job(strike, 5)).unwrap() {
            Response::Reject { code, msg, .. } => {
                assert_eq!(code, RejectCode::JobPanicked);
                if strike == 2 {
                    assert!(msg.contains("quarantined"), "second strike announces quarantine");
                }
            }
            other => panic!("strike {strike}: expected reject, got {other:?}"),
        }
    }
    // Strike three never reaches the queue or a worker.
    match c.submit_wait(&panic_job(3, 5)).unwrap() {
        Response::Reject { code, msg, .. } => {
            assert_eq!(code, RejectCode::Quarantined);
            assert!(msg.contains("quarantined"));
        }
        other => panic!("expected Quarantined reject, got {other:?}"),
    }
    let stats = c.stats().unwrap();
    assert_eq!(get(&stats, "panicked"), 2, "quarantined submission executed nothing");
    assert_eq!(get(&stats, "quarantined"), 1);
    assert_eq!(get(&stats, "quarantined_fingerprints"), 1);
    assert_eq!(get(&stats, "worker_respawns"), 2);
    assert_eq!(get(&stats, "workers_alive"), 2);
    assert_eq!(get(&stats, "accepted"), 2, "the quarantine reject happens at admission");
    // An innocent job with a different fingerprint is unaffected.
    match c.submit_wait(&job(4, 6)).unwrap() {
        Response::Ok(_) => {}
        other => panic!("innocent job rejected: {other:?}"),
    }
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn breaker_trips_serves_cpu_only_then_recovers_via_probe() {
    // threshold 2 / window 4 / cooldown 2, one worker so the job order —
    // and therefore the breaker trace — is fully deterministic.
    let (handle, addr) = serve_with(|c| {
        c.workers = 1;
        c.breaker = gpm_serve::breaker::BreakerConfig { threshold: 2, window: 4, cooldown: 2 };
    });
    let mut c = Client::connect(&addr).unwrap();

    // Two fatally-wounded GPU jobs (in-run CPU fallback saves each run,
    // but the device error is fatal): the breaker trips on the second.
    for (tag, seed) in [(1u64, 11u64), (2, 12)] {
        let mut req = job(tag, seed);
        req.fault_plan_str = "7:gpu.launch@3=lost".into();
        req.fault_plan = Some(gpm_faults::FaultPlan::parse(&req.fault_plan_str).unwrap());
        req.fallback = true;
        match c.submit_wait(&req).unwrap() {
            Response::Ok(rep) => assert!(rep.telemetry.degraded),
            other => panic!("unexpected: {other:?}"),
        }
    }
    let stats = c.stats().unwrap();
    assert_eq!(get(&stats, "breaker_trips"), 1);
    assert_eq!(get(&stats, "breaker_state"), 1, "open after the second fatal");

    // Cooldown: the next two healthy jobs are short-circuited to the
    // mt-metis rung and marked degraded, byte-identical to a direct
    // mt-metis run configured by hand from the request.
    for (tag, seed) in [(3u64, 13u64), (4, 14)] {
        let req = job(tag, seed);
        match c.submit_wait(&req).unwrap() {
            Response::Ok(rep) => {
                assert!(rep.telemetry.degraded, "breaker-open job is degraded by definition");
                assert_eq!(rep.telemetry.breaker_state, 1, "telemetry reports the open breaker");
                let mut cfg = gpm_mtmetis::MtMetisConfig::new(4)
                    .with_threads(req.threads as usize)
                    .with_seed(seed);
                cfg.ubfactor = req.ub();
                let reference = gpm_mtmetis::partition(&req.graph, &cfg);
                assert_eq!(
                    rep.part, reference.part,
                    "breaker-open reply must be byte-identical to the mt-metis reference"
                );
                assert_eq!(rep.telemetry.modeled_secs_bits, reference.modeled_seconds().to_bits());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(get(&c.stats().unwrap(), "breaker_cpu_only"), 2);

    // Cooldown exhausted: the next job is the half-open probe; it is
    // healthy, so the breaker closes and the reply is the plain hybrid
    // run's, byte for byte.
    let probe = job(5, 15);
    match c.submit_wait(&probe).unwrap() {
        Response::Ok(rep) => {
            assert!(!rep.telemetry.degraded, "clean probe runs the full hybrid pipeline");
            assert_eq!(rep.telemetry.breaker_state, 0, "probe success closes the breaker");
            let reference =
                gp_metis::partition_with_plan(&probe.graph, &probe.gpmetis_config(), None).unwrap();
            assert_eq!(rep.part, reference.result.part);
            assert_eq!(rep.telemetry.edge_cut, reference.result.edge_cut);
            assert_eq!(
                rep.telemetry.modeled_secs_bits,
                reference.result.modeled_seconds().to_bits()
            );
        }
        other => panic!("unexpected: {other:?}"),
    }
    let stats = c.stats().unwrap();
    assert_eq!(get(&stats, "breaker_state"), 0);
    assert_eq!(get(&stats, "breaker_trips"), 1, "no re-trip");
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn transient_faults_past_device_retries_fall_through_to_mtmetis_rung() {
    // Every upload fails transiently, so the device's own retries run out
    // and, without `fallback`, the engine returns the error. The job is
    // served once on the mt-metis rung; a transient error is not a device
    // death, so the breaker stays closed.
    let (handle, addr) = serve_with(|c| c.workers = 1);
    let mut c = Client::connect(&addr).unwrap();
    let mut req = job(1, 21);
    req.fault_plan_str = "5:gpu.h2d@*=transfer".into();
    req.fault_plan = Some(gpm_faults::FaultPlan::parse(&req.fault_plan_str).unwrap());
    match c.submit_wait(&req).unwrap() {
        Response::Ok(rep) => {
            assert!(rep.telemetry.degraded, "the mt-metis rung marks the reply degraded");
            let reference = gpm_mtmetis::partition(&req.graph, &req.mtmetis_config());
            assert_eq!(rep.part, reference.part);
            assert_eq!(rep.telemetry.modeled_secs_bits, reference.modeled_seconds().to_bits());
            assert_eq!((rep.telemetry.breaker_state, rep.telemetry.breaker_trips), (0, 0));
        }
        other => panic!("unexpected: {other:?}"),
    }
    let stats = c.stats().unwrap();
    assert_eq!(get(&stats, "breaker_state"), 0);
    assert_eq!(get(&stats, "breaker_trips"), 0);
    assert_eq!(get(&stats, "degraded"), 1);
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn idle_and_slowloris_connections_are_reaped() {
    let (handle, addr) = serve_with(|c| {
        c.idle_timeout_ms = 250;
        c.read_deadline_ms = 250;
    });
    // Dead-air connection: never sends a byte.
    let idle = std::net::TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    // Slowloris: starts a frame header, then stalls forever.
    let mut slow = std::net::TcpStream::connect(&addr).unwrap();
    slow.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    slow.write_all(&protocol::MAGIC.to_le_bytes()).unwrap();
    slow.flush().unwrap();

    // Both must be closed by the daemon (EOF on our side) without any
    // action from us.
    for (name, mut conn) in [("idle", idle), ("slow", slow)] {
        use std::io::Read;
        let mut byte = [0u8; 1];
        match conn.read(&mut byte) {
            Ok(0) => {}
            other => panic!("{name} connection not reaped, read returned {other:?}"),
        }
    }
    let mut c = Client::connect(&addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(get(&stats, "conns_closed_idle"), 1);
    assert_eq!(get(&stats, "conns_closed_slow"), 1);
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn frame_budget_closes_flooding_connection() {
    let (handle, addr) = serve_with(|c| c.max_frames = 3);
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    for _ in 0..4 {
        raw.write_all(&protocol::frame(FT_STATS, &[])).unwrap();
    }
    raw.flush().unwrap();
    // Three stats replies, then the budget reject, then EOF.
    for _ in 0..3 {
        let (ft, _) = protocol::read_frame(&mut raw).unwrap().expect("stats reply");
        assert_eq!(ft, protocol::FT_STATS_REPLY);
    }
    let (ft, payload) = protocol::read_frame(&mut raw).unwrap().expect("budget reject");
    assert_eq!(ft, protocol::FT_REJECT);
    let (_, code, _, msg) = protocol::decode_reject(&payload).unwrap();
    assert_eq!(code, RejectCode::Protocol);
    assert!(msg.contains("frame budget"), "{msg}");
    assert!(protocol::read_frame(&mut raw).unwrap().is_none(), "connection closed after reject");
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(get(&c.stats().unwrap(), "conns_closed_budget"), 1);
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn half_closed_connection_still_receives_every_reply() {
    let (handle, addr) = serve_with(|c| c.workers = 2);
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let n = 6u64;
    for tag in 0..n {
        raw.write_all(&protocol::frame(FT_JOB, &protocol::encode_job(&job(tag, 1 + tag)))).unwrap();
    }
    raw.flush().unwrap();
    // Half-close: we are done submitting, but the daemon must still
    // compute and deliver all six replies before closing its side.
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut seen = vec![false; n as usize];
    for _ in 0..n {
        let (ft, payload) =
            protocol::read_frame(&mut raw).unwrap().expect("reply after half-close");
        match protocol::decode_response(ft, &payload).unwrap() {
            Response::Ok(rep) => {
                assert!(!seen[rep.tag as usize]);
                seen[rep.tag as usize] = true;
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(seen.iter().all(|&s| s), "zero lost jobs across a half-close");
    assert!(protocol::read_frame(&mut raw).unwrap().is_none(), "clean EOF after the last reply");
    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn queue_full_reject_carries_backlog_hint_and_retry_helper_recovers() {
    let (handle, addr) = serve_with(|c| {
        c.workers = 1;
        c.queue_cap = 1;
        c.cache_cap = 8;
    });
    let (mut tx, mut rx) = Client::connect(&addr).unwrap().split().unwrap();
    // One slow job fills the only admission slot...
    let slow = {
        let mut r = JobRequest::new(hexmesh(40, 48), 8);
        r.tag = 1;
        r.seed = 6;
        r.gpu_threshold = 400;
        r
    };
    tx.submit(&slow).unwrap();
    // ...so immediate follow-ups bounce with a backlog hint.
    for tag in 2..5u64 {
        tx.submit(&job(tag, tag)).unwrap();
    }
    let mut hints = Vec::new();
    for _ in 0..4 {
        match rx.read_response().unwrap() {
            Response::Ok(_) => {}
            Response::Reject { code: RejectCode::QueueFull, retry_after, .. } => {
                hints.push(retry_after);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(!hints.is_empty(), "bounded queue must reject under burst");
    assert!(hints.iter().all(|&h| h >= 1), "QueueFull must hint the backlog depth: {hints:?}");

    // The retrying submit helper rides out a full queue by honoring the
    // hint instead of failing.
    let mut c = Client::connect(&addr).unwrap();
    let slow2 = {
        let mut r = JobRequest::new(hexmesh(40, 48), 8);
        r.tag = 10;
        r.seed = 7;
        r.gpu_threshold = 400;
        r
    };
    tx.submit(&slow2).unwrap(); // refill the slot
    match c.submit_wait_retry(&job(11, 99), 10_000).unwrap() {
        Response::Ok(rep) => assert_eq!(rep.tag, 11),
        other => panic!("retry helper gave up: {other:?}"),
    }
    // slow2 may itself have bounced if the retried job won the slot race;
    // either way its submission was answered.
    match rx.read_response().unwrap() {
        Response::Ok(rep) => assert_eq!(rep.tag, 10),
        Response::Reject { tag, code: RejectCode::QueueFull, .. } => assert_eq!(tag, 10),
        other => panic!("unexpected: {other:?}"),
    }
    c.shutdown().unwrap();
    handle.join();
}
