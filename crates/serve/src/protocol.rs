//! The gpm-serve wire protocol: length-prefixed binary frames over a
//! byte stream (TCP in practice; anything implementing `Read`/`Write`
//! works, which is how the property tests drive the codec in memory).
//!
//! Every frame is a 12-byte header — magic `"GPM1"`, a frame type, a
//! payload length — followed by `len` payload bytes. All integers are
//! little-endian. The payload grammar is fixed per frame type and decoded
//! by the bounds-checked `Rd` cursor, so a malformed frame — truncated,
//! oversized, bit-flipped, or adversarial — *cannot* panic the decoder:
//! it surfaces as a typed [`ProtoError`], which the daemon answers with a
//! [`Reject`](RejectCode::Protocol) response before closing the
//! connection (a framing error means the stream position can no longer
//! be trusted).
//!
//! **No-panic guarantee.** Every length and count is checked against the
//! remaining payload *before* indexing or allocating, and the decode path
//! contains no `debug_assert!` on wire-derived values — the guarantee is
//! identical in debug and release builds. (The lone `debug_assert!` in
//! this module sits on the *encode* side, checking locally-constructed
//! ids, never peer input.) The property suite in
//! `crates/serve/tests/prop_protocol.rs` pins this by fuzzing truncations,
//! bit flips, and garbage through every decoder in a debug build.
//!
//! A partition job carries the full CSR graph inline plus the engine
//! configuration (k, balance, seed, algorithm, threads/ranks, GPU
//! threshold, fallback flag), an optional deadline, and an optional
//! `GPM_FAULTS`-syntax fault plan so tests and chaos drills can inject
//! faults *per job* instead of per process. The graph is structurally
//! validated at decode time ([`gpm_graph::csr::CsrGraph::validate`]), so
//! the engines only ever see well-formed CSR.

use gpm_faults::FaultPlan;
use gpm_graph::csr::CsrGraph;
use std::io::{Read, Write};

/// `"GPM1"` as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"GPM1");

/// Hard cap on a frame payload (64 MiB ≈ a 4M-vertex graph). Frames
/// declaring more are rejected *before* any allocation.
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// Frame header size: magic + type + payload length.
pub const HEADER_LEN: usize = 12;

// Frame type words. Requests are < 16, responses >= 16.
pub const FT_JOB: u32 = 1;
pub const FT_STATS: u32 = 2;
pub const FT_SHUTDOWN: u32 = 3;
pub const FT_JOB_OK: u32 = 16;
pub const FT_REJECT: u32 = 17;
pub const FT_STATS_REPLY: u32 = 18;
pub const FT_SHUTDOWN_ACK: u32 = 19;

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The magic word did not match — not a gpm-serve peer.
    BadMagic(u32),
    /// The header declared a payload larger than [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The frame type word is not one this endpoint understands.
    BadFrameType(u32),
    /// The payload ended before the grammar was satisfied.
    Truncated { wanted: usize, have: usize },
    /// The payload has bytes left over after the grammar was satisfied.
    TrailingBytes(usize),
    /// A field held an out-of-domain value.
    BadField(String),
    /// The embedded graph failed CSR validation.
    BadGraph(String),
    /// The embedded fault plan failed to parse.
    BadFaultPlan(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            ProtoError::Oversized(n) => {
                write!(f, "declared payload {n} exceeds cap {MAX_PAYLOAD}")
            }
            ProtoError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::Truncated { wanted, have } => {
                write!(f, "truncated payload: wanted {wanted} bytes, have {have}")
            }
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            ProtoError::BadField(s) => write!(f, "bad field: {s}"),
            ProtoError::BadGraph(s) => write!(f, "invalid graph: {s}"),
            ProtoError::BadFaultPlan(s) => write!(f, "invalid fault plan: {s}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Which engine a job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The paper's hybrid CPU-GPU pipeline (default).
    GpMetis,
    /// Serial Metis baseline.
    Metis,
    /// Shared-memory mt-metis baseline.
    MtMetis,
    /// Distributed ParMetis baseline (simulated cluster).
    ParMetis,
}

impl Algo {
    /// Stable wire discriminant (also used in cache keys).
    pub fn to_wire(self) -> u32 {
        match self {
            Algo::GpMetis => 0,
            Algo::Metis => 1,
            Algo::MtMetis => 2,
            Algo::ParMetis => 3,
        }
    }

    fn from_wire(w: u32) -> Result<Algo, ProtoError> {
        Ok(match w {
            0 => Algo::GpMetis,
            1 => Algo::Metis,
            2 => Algo::MtMetis,
            3 => Algo::ParMetis,
            other => return Err(ProtoError::BadField(format!("algo {other}"))),
        })
    }

    /// The `--algo` token, matching `gpartition`.
    pub fn name(self) -> &'static str {
        match self {
            Algo::GpMetis => "gpmetis",
            Algo::Metis => "metis",
            Algo::MtMetis => "mtmetis",
            Algo::ParMetis => "parmetis",
        }
    }

    /// Parse the `--algo` token, matching `gpartition`.
    pub fn parse(s: &str) -> Option<Algo> {
        Some(match s {
            "gpmetis" => Algo::GpMetis,
            "metis" => Algo::Metis,
            "mtmetis" => Algo::MtMetis,
            "parmetis" => Algo::ParMetis,
            _ => return None,
        })
    }
}

/// One partition job, as carried on the wire.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Client-chosen correlation tag, echoed verbatim in the response so
    /// pipelined jobs on one connection can be matched up.
    pub tag: u64,
    pub k: u32,
    /// Balance tolerance as `f64::to_bits` (bit-exact round trip).
    pub ub_bits: u64,
    pub seed: u64,
    pub algo: Algo,
    /// Wall-clock deadline in milliseconds from admission; 0 = none.
    pub deadline_ms: u64,
    /// Arm the engine's checkpointed GPU→CPU degradation path.
    pub fallback: bool,
    /// GPU/CPU switchover override; 0 = engine default.
    pub gpu_threshold: u32,
    /// CPU threads for the shared-memory phases.
    pub threads: u32,
    /// Ranks for the ParMetis engine.
    pub ranks: u32,
    /// Per-job fault schedule (`GPM_FAULTS` syntax), already parsed.
    pub fault_plan: Option<FaultPlan>,
    /// The raw plan string (part of the cache key: two jobs with
    /// different schedules may legitimately produce different results).
    pub fault_plan_str: String,
    pub graph: CsrGraph,
}

impl JobRequest {
    /// A job with the defaults every entry point starts from: the paper's
    /// protocol (ub 1.03, 8 threads, 8 ranks) on the hybrid engine, seed 1.
    pub fn new(graph: CsrGraph, k: u32) -> JobRequest {
        JobRequest {
            tag: 0,
            k,
            ub_bits: 1.03f64.to_bits(),
            seed: 1,
            algo: Algo::GpMetis,
            deadline_ms: 0,
            fallback: false,
            gpu_threshold: 0,
            threads: 8,
            ranks: 8,
            fault_plan: None,
            fault_plan_str: String::new(),
            graph,
        }
    }

    /// Balance tolerance as a float.
    pub fn ub(&self) -> f64 {
        f64::from_bits(self.ub_bits)
    }

    /// Check the engine options against the domain every engine accepts:
    /// ub finite in [1, 10], threads and ranks in [1, 4096], and
    /// 1 ≤ k ≤ n. [`decode_job`] and `gpartition` both call it; the checks
    /// that guard untrusted wire bytes (CSR structure, zero weights) stay
    /// in [`decode_job`].
    pub fn validate(&self) -> Result<(), ProtoError> {
        let ub = self.ub();
        if !(ub.is_finite() && (1.0..=10.0).contains(&ub)) {
            return Err(ProtoError::BadField(format!("ub {ub} outside [1, 10]")));
        }
        for (name, v) in [("threads", self.threads), ("ranks", self.ranks)] {
            if !(1..=4096).contains(&v) {
                return Err(ProtoError::BadField(format!("{name} {v} outside [1, 4096]")));
            }
        }
        let n = self.graph.n();
        if self.k < 1 || self.k as usize > n {
            return Err(ProtoError::BadField(format!("k {} outside [1, n = {n}]", self.k)));
        }
        Ok(())
    }

    /// The serial Metis configuration this job runs with.
    pub fn metis_config(&self) -> gpm_metis::MetisConfig {
        let mut c = gpm_metis::MetisConfig::new(self.k as usize).with_seed(self.seed);
        c.ubfactor = self.ub();
        c
    }

    /// The mt-metis configuration this job runs with. It is also the
    /// daemon's last rung for GP-metis and ParMetis jobs.
    pub fn mtmetis_config(&self) -> gpm_mtmetis::MtMetisConfig {
        let mut c = gpm_mtmetis::MtMetisConfig::new(self.k as usize)
            .with_threads(self.threads as usize)
            .with_seed(self.seed);
        c.ubfactor = self.ub();
        c
    }

    /// The ParMetis configuration this job runs with.
    pub fn parmetis_config(&self) -> gpm_parmetis::ParMetisConfig {
        let mut c = gpm_parmetis::ParMetisConfig::new(self.k as usize)
            .with_ranks(self.ranks as usize)
            .with_seed(self.seed);
        c.ubfactor = self.ub();
        c
    }

    /// The hybrid-engine configuration this job runs with. A
    /// `gpu_threshold` of 0 keeps the engine's default switchover.
    pub fn gpmetis_config(&self) -> gp_metis::GpMetisConfig {
        let mut c = gp_metis::GpMetisConfig::new(self.k as usize).with_seed(self.seed);
        c.ubfactor = self.ub();
        c.cpu_threads = self.threads as usize;
        c.fallback = self.fallback;
        if self.gpu_threshold > 0 {
            c.gpu_threshold = self.gpu_threshold as usize;
        }
        c
    }
}

/// Why a job was answered with a [`FT_REJECT`] frame instead of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// Admission control: the bounded queue was full.
    QueueFull,
    /// The job's deadline elapsed before (or while) it ran.
    DeadlineExpired,
    /// The request could not be decoded.
    Protocol,
    /// Every rung of the resilience ladder failed.
    EngineFailed,
    /// The daemon is shutting down and no longer admits jobs.
    ShuttingDown,
    /// The job body panicked in a worker; the panic payload rides in the
    /// reject message and the worker was respawned.
    JobPanicked,
    /// The job's fingerprint is on the poison list (it killed a worker
    /// twice) and is refused without touching the pool.
    Quarantined,
}

impl RejectCode {
    fn to_wire(self) -> u32 {
        match self {
            RejectCode::QueueFull => 1,
            RejectCode::DeadlineExpired => 2,
            RejectCode::Protocol => 3,
            RejectCode::EngineFailed => 4,
            RejectCode::ShuttingDown => 5,
            RejectCode::JobPanicked => 6,
            RejectCode::Quarantined => 7,
        }
    }

    fn from_wire(w: u32) -> Result<RejectCode, ProtoError> {
        Ok(match w {
            1 => RejectCode::QueueFull,
            2 => RejectCode::DeadlineExpired,
            3 => RejectCode::Protocol,
            4 => RejectCode::EngineFailed,
            5 => RejectCode::ShuttingDown,
            6 => RejectCode::JobPanicked,
            7 => RejectCode::Quarantined,
            other => return Err(ProtoError::BadField(format!("reject code {other}"))),
        })
    }

    /// Stable lowercase token for logs and CLI output.
    pub fn token(self) -> &'static str {
        match self {
            RejectCode::QueueFull => "queue-full",
            RejectCode::DeadlineExpired => "deadline-expired",
            RejectCode::Protocol => "protocol-error",
            RejectCode::EngineFailed => "engine-failed",
            RejectCode::ShuttingDown => "shutting-down",
            RejectCode::JobPanicked => "job-panicked",
            RejectCode::Quarantined => "quarantined",
        }
    }
}

/// Per-job telemetry riding back with every successful response — the
/// wire form of the engine's `RunReport` plus serve-layer counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobTelemetry {
    /// The job finished on a degraded path (engine checkpoint fallback or
    /// the serve-layer mt-metis rung).
    pub degraded: bool,
    pub faults_injected: u64,
    pub device_retries: u64,
    pub checkpoint_gpu_levels: u32,
    pub edge_cut: u64,
    /// `f64::to_bits` of the balance actually achieved.
    pub imbalance_bits: u64,
    /// `f64::to_bits` of the modeled (paper-testbed) seconds.
    pub modeled_secs_bits: u64,
    /// Wall microseconds the engine ran (0 on a cache hit).
    pub wall_us: u64,
    /// GPU circuit-breaker state after this job (wire encoding of
    /// [`crate::breaker::BreakerState`]: 0 closed, 1 open, 2 half-open).
    /// 0 for jobs that never consult the breaker (non-GpMetis engines).
    pub breaker_state: u32,
    /// Breaker trips observed by the daemon so far.
    pub breaker_trips: u64,
}

/// A successful job response.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReply {
    pub tag: u64,
    /// Served from the result cache without recomputation.
    pub cache_hit: bool,
    pub telemetry: JobTelemetry,
    /// One part id per vertex, in vertex order.
    pub part: Vec<u32>,
}

impl JobReply {
    /// Validate the returned labels against the request's `k` — the wire
    /// twin of `gpm_graph::io::read_partition_checked`. Call on the
    /// decode path before trusting `part` (e.g. before writing it out in
    /// `gpartition --output` format).
    pub fn check_labels(&self, k: u32) -> Result<(), ProtoError> {
        for (v, &p) in self.part.iter().enumerate() {
            if p >= k {
                return Err(ProtoError::BadField(format!(
                    "partition label {p} for vertex {v} out of 0..{k}"
                )));
            }
        }
        Ok(())
    }
}

/// Any response frame the daemon can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Ok(JobReply),
    Reject {
        tag: u64,
        code: RejectCode,
        /// Backoff hint: for `QueueFull` the current queue depth (jobs
        /// queued + in flight), so clients scale their retry delay to the
        /// actual backlog instead of retrying immediately. 0 = no hint.
        retry_after: u32,
        msg: String,
    },
    Stats(Vec<(String, u64)>),
    ShutdownAck,
}

// ---------------------------------------------------------------------------
// Payload cursor (decode side)
// ---------------------------------------------------------------------------

struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or(ProtoError::Truncated { wanted: n, have: self.b.len() - self.pos })?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-counted vector of `u32`s, with the count bounds-checked
    /// against the remaining payload *before* allocating.
    fn vec_u32(&mut self) -> Result<Vec<u32>, ProtoError> {
        let n = self.u32()? as usize;
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| ProtoError::BadField(format!("vector length {n} overflows")))?;
        let raw = self.take(bytes)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// A `u32`-counted UTF-8 string.
    fn string(&mut self) -> Result<String, ProtoError> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| ProtoError::BadField("string is not UTF-8".into()))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos != self.b.len() {
            return Err(ProtoError::TrailingBytes(self.b.len() - self.pos));
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_vec_u32(out: &mut Vec<u8>, v: &[u32]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

/// Assemble a complete frame (header + payload).
pub fn frame(frame_type: u32, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() as u64 <= MAX_PAYLOAD as u64, "payload exceeds MAX_PAYLOAD");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    put_u32(&mut out, MAGIC);
    put_u32(&mut out, frame_type);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    out
}

/// Parse a frame header, yielding `(frame_type, payload_len)`.
pub fn decode_header(h: &[u8; HEADER_LEN]) -> Result<(u32, u32), ProtoError> {
    let magic = u32::from_le_bytes(h[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let ft = u32::from_le_bytes(h[4..8].try_into().unwrap());
    let len = u32::from_le_bytes(h[8..12].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(len));
    }
    Ok((ft, len))
}

/// Encode a [`JobRequest`] payload.
pub fn encode_job(req: &JobRequest) -> Vec<u8> {
    let g = &req.graph;
    let mut p = Vec::with_capacity(64 + 4 * (g.xadj.len() + 2 * g.adjncy.len() + g.vwgt.len()));
    put_u64(&mut p, req.tag);
    put_u32(&mut p, req.k);
    put_u64(&mut p, req.ub_bits);
    put_u64(&mut p, req.seed);
    put_u32(&mut p, req.algo.to_wire());
    put_u64(&mut p, req.deadline_ms);
    put_u32(&mut p, u32::from(req.fallback));
    put_u32(&mut p, req.gpu_threshold);
    put_u32(&mut p, req.threads);
    put_u32(&mut p, req.ranks);
    put_string(&mut p, &req.fault_plan_str);
    put_vec_u32(&mut p, &g.xadj);
    put_vec_u32(&mut p, &g.adjncy);
    put_vec_u32(&mut p, &g.adjwgt);
    put_vec_u32(&mut p, &g.vwgt);
    p
}

/// Decode and fully validate a [`JobRequest`] payload. The returned job's
/// graph passed CSR validation and has no zero weight; its options passed
/// [`JobRequest::validate`]; any fault plan parsed.
pub fn decode_job(payload: &[u8]) -> Result<JobRequest, ProtoError> {
    let mut r = Rd { b: payload, pos: 0 };
    let tag = r.u64()?;
    let k = r.u32()?;
    let ub_bits = r.u64()?;
    let seed = r.u64()?;
    let algo = Algo::from_wire(r.u32()?)?;
    let deadline_ms = r.u64()?;
    let fallback = match r.u32()? {
        0 => false,
        1 => true,
        other => return Err(ProtoError::BadField(format!("fallback flag {other}"))),
    };
    let gpu_threshold = r.u32()?;
    let threads = r.u32()?;
    let ranks = r.u32()?;
    let fault_plan_str = r.string()?;
    let xadj = r.vec_u32()?;
    let adjncy = r.vec_u32()?;
    let adjwgt = r.vec_u32()?;
    let vwgt = r.vec_u32()?;
    r.finish()?;

    let fault_plan = if fault_plan_str.is_empty() {
        None
    } else {
        Some(FaultPlan::parse(&fault_plan_str).map_err(|e| ProtoError::BadFaultPlan(e.msg))?)
    };
    let graph = CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt);
    graph.validate().map_err(|e| ProtoError::BadGraph(e.to_string()))?;
    if graph.vwgt.contains(&0) || graph.adjwgt.contains(&0) {
        return Err(ProtoError::BadGraph("zero vertex or edge weight".into()));
    }
    let req = JobRequest {
        tag,
        k,
        ub_bits,
        seed,
        algo,
        deadline_ms,
        fallback,
        gpu_threshold,
        threads,
        ranks,
        fault_plan,
        fault_plan_str,
        graph,
    };
    req.validate()?;
    Ok(req)
}

/// Encode a [`JobReply`] payload.
pub fn encode_job_ok(rep: &JobReply) -> Vec<u8> {
    let t = &rep.telemetry;
    let mut p = Vec::with_capacity(96 + 4 * rep.part.len());
    put_u64(&mut p, rep.tag);
    put_u32(&mut p, u32::from(rep.cache_hit));
    put_u32(&mut p, u32::from(t.degraded));
    put_u64(&mut p, t.faults_injected);
    put_u64(&mut p, t.device_retries);
    put_u32(&mut p, t.checkpoint_gpu_levels);
    put_u64(&mut p, t.edge_cut);
    put_u64(&mut p, t.imbalance_bits);
    put_u64(&mut p, t.modeled_secs_bits);
    put_u64(&mut p, t.wall_us);
    put_u32(&mut p, t.breaker_state);
    put_u64(&mut p, t.breaker_trips);
    put_vec_u32(&mut p, &rep.part);
    p
}

/// Decode a [`JobReply`] payload.
pub fn decode_job_ok(payload: &[u8]) -> Result<JobReply, ProtoError> {
    let mut r = Rd { b: payload, pos: 0 };
    let tag = r.u64()?;
    let cache_hit = r.u32()? != 0;
    let degraded = r.u32()? != 0;
    let faults_injected = r.u64()?;
    let device_retries = r.u64()?;
    let checkpoint_gpu_levels = r.u32()?;
    let edge_cut = r.u64()?;
    let imbalance_bits = r.u64()?;
    let modeled_secs_bits = r.u64()?;
    let wall_us = r.u64()?;
    let breaker_state = r.u32()?;
    let breaker_trips = r.u64()?;
    let part = r.vec_u32()?;
    r.finish()?;
    Ok(JobReply {
        tag,
        cache_hit,
        telemetry: JobTelemetry {
            degraded,
            faults_injected,
            device_retries,
            checkpoint_gpu_levels,
            edge_cut,
            imbalance_bits,
            modeled_secs_bits,
            wall_us,
            breaker_state,
            breaker_trips,
        },
        part,
    })
}

/// Encode a rejection payload. `retry_after` is the backoff hint (see
/// [`Response::Reject`]); pass 0 when there is nothing to hint.
pub fn encode_reject(tag: u64, code: RejectCode, retry_after: u32, msg: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(20 + msg.len());
    put_u64(&mut p, tag);
    put_u32(&mut p, code.to_wire());
    put_u32(&mut p, retry_after);
    put_string(&mut p, msg);
    p
}

/// Decode a rejection payload into `(tag, code, retry_after, message)`.
pub fn decode_reject(payload: &[u8]) -> Result<(u64, RejectCode, u32, String), ProtoError> {
    let mut r = Rd { b: payload, pos: 0 };
    let tag = r.u64()?;
    let code = RejectCode::from_wire(r.u32()?)?;
    let retry_after = r.u32()?;
    let msg = r.string()?;
    r.finish()?;
    Ok((tag, code, retry_after, msg))
}

/// Encode a stats payload: ordered `(name, value)` counters.
pub fn encode_stats(counters: &[(String, u64)]) -> Vec<u8> {
    let mut p = Vec::new();
    put_u32(&mut p, counters.len() as u32);
    for (name, value) in counters {
        put_string(&mut p, name);
        put_u64(&mut p, *value);
    }
    p
}

/// Decode a stats payload.
pub fn decode_stats(payload: &[u8]) -> Result<Vec<(String, u64)>, ProtoError> {
    let mut r = Rd { b: payload, pos: 0 };
    let n = r.u32()? as usize;
    if n > 4096 {
        return Err(ProtoError::BadField(format!("{n} counters")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.string()?;
        let value = r.u64()?;
        out.push((name, value));
    }
    r.finish()?;
    Ok(out)
}

/// Decode any *response* frame.
pub fn decode_response(frame_type: u32, payload: &[u8]) -> Result<Response, ProtoError> {
    match frame_type {
        FT_JOB_OK => Ok(Response::Ok(decode_job_ok(payload)?)),
        FT_REJECT => {
            let (tag, code, retry_after, msg) = decode_reject(payload)?;
            Ok(Response::Reject { tag, code, retry_after, msg })
        }
        FT_STATS_REPLY => Ok(Response::Stats(decode_stats(payload)?)),
        FT_SHUTDOWN_ACK => {
            if payload.is_empty() {
                Ok(Response::ShutdownAck)
            } else {
                Err(ProtoError::TrailingBytes(payload.len()))
            }
        }
        other => Err(ProtoError::BadFrameType(other)),
    }
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, frame_type: u32, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame(frame_type, payload))?;
    w.flush()
}

/// Read one frame from a stream, blocking. `Ok(None)` on clean EOF at a
/// frame boundary; protocol-level problems surface as
/// `io::ErrorKind::InvalidData` wrapping the [`ProtoError`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<(u32, Vec<u8>)>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(proto_io(ProtoError::Truncated { wanted: HEADER_LEN, have: filled }));
        }
        filled += n;
    }
    let (ft, len) = decode_header(&header).map_err(proto_io)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            proto_io(ProtoError::Truncated { wanted: len as usize, have: 0 })
        } else {
            e
        }
    })?;
    Ok(Some((ft, payload)))
}

/// Wrap a [`ProtoError`] as `io::ErrorKind::InvalidData` so stream
/// readers can carry both transport and protocol failures in one type.
pub fn proto_io(e: ProtoError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::grid2d;

    fn sample_job() -> JobRequest {
        let mut req = JobRequest::new(grid2d(6, 6), 4);
        req.tag = 77;
        req.seed = 9;
        req.deadline_ms = 1234;
        req.fallback = true;
        req.gpu_threshold = 400;
        req.fault_plan_str = "7:gpu.launch@8=lost".into();
        req.fault_plan = Some(FaultPlan::parse("7:gpu.launch@8=lost").unwrap());
        req
    }

    #[test]
    fn job_roundtrip() {
        let req = sample_job();
        let out = decode_job(&encode_job(&req)).unwrap();
        assert_eq!(out.tag, 77);
        assert_eq!(out.k, 4);
        assert_eq!(out.seed, 9);
        assert_eq!(out.deadline_ms, 1234);
        assert!(out.fallback);
        assert_eq!(out.gpu_threshold, 400);
        assert_eq!(out.algo, Algo::GpMetis);
        assert_eq!(out.fault_plan, req.fault_plan);
        assert_eq!(out.graph.xadj, req.graph.xadj);
        assert_eq!(out.graph.adjncy, req.graph.adjncy);
    }

    #[test]
    fn job_ok_and_reject_roundtrip() {
        let rep = JobReply {
            tag: 5,
            cache_hit: true,
            telemetry: JobTelemetry {
                degraded: true,
                faults_injected: 3,
                device_retries: 2,
                checkpoint_gpu_levels: 1,
                edge_cut: 42,
                imbalance_bits: 1.01f64.to_bits(),
                modeled_secs_bits: 0.5f64.to_bits(),
                wall_us: 1000,
                breaker_state: 2,
                breaker_trips: 4,
            },
            part: vec![0, 1, 2, 3],
        };
        assert_eq!(decode_job_ok(&encode_job_ok(&rep)).unwrap(), rep);
        let p = encode_reject(9, RejectCode::QueueFull, 17, "full");
        assert_eq!(decode_reject(&p).unwrap(), (9, RejectCode::QueueFull, 17, "full".into()));
    }

    #[test]
    fn new_reject_codes_roundtrip() {
        for (code, wire) in [(RejectCode::JobPanicked, 6u32), (RejectCode::Quarantined, 7u32)] {
            let p = encode_reject(3, code, 0, "boom");
            let (tag, out, hint, msg) = decode_reject(&p).unwrap();
            assert_eq!((tag, out, hint, msg.as_str()), (3, code, 0, "boom"));
            assert_eq!(code.to_wire(), wire);
        }
        // An unknown code is a typed error, not a panic.
        let mut p = encode_reject(3, RejectCode::Quarantined, 0, "x");
        p[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(decode_reject(&p), Err(ProtoError::BadField(_))));
    }

    #[test]
    fn reply_label_check_matches_k() {
        let mut rep = JobReply {
            tag: 1,
            cache_hit: false,
            telemetry: JobTelemetry::default(),
            part: vec![0, 1, 2, 3],
        };
        assert!(rep.check_labels(4).is_ok());
        assert!(matches!(rep.check_labels(3), Err(ProtoError::BadField(_))));
        rep.part.clear();
        assert!(rep.check_labels(1).is_ok(), "empty partitions carry no labels");
    }

    #[test]
    fn stats_roundtrip() {
        let c = vec![("accepted".to_string(), 10u64), ("cache_hits".to_string(), 3)];
        assert_eq!(decode_stats(&encode_stats(&c)).unwrap(), c);
    }

    #[test]
    fn header_rejects_bad_magic_and_oversize() {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&0xDEADBEEFu32.to_le_bytes());
        assert!(matches!(decode_header(&h), Err(ProtoError::BadMagic(_))));
        let f = frame(FT_JOB, &[]);
        let mut h: [u8; HEADER_LEN] = f[..HEADER_LEN].try_into().unwrap();
        h[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(decode_header(&h), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let p = encode_job(&sample_job());
        for cut in [0, 1, 7, 20, p.len() - 1] {
            assert!(decode_job(&p[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut p = encode_job(&sample_job());
        p.push(0);
        assert!(matches!(decode_job(&p), Err(ProtoError::TrailingBytes(1))));
    }

    #[test]
    fn domain_checks_fire() {
        // Each option at and just past each edge of its domain, through
        // both `validate` and the wire; the error names the field.
        type Edit = fn(&mut JobRequest);
        let cases: [(&str, Edit, bool); 16] = [
            ("threads", |r| r.threads = 0, false),
            ("threads", |r| r.threads = 1, true),
            ("threads", |r| r.threads = 4096, true),
            ("threads", |r| r.threads = 4097, false),
            ("ranks", |r| r.ranks = 0, false),
            ("ranks", |r| r.ranks = 1, true),
            ("ranks", |r| r.ranks = 4096, true),
            ("ranks", |r| r.ranks = 4097, false),
            ("ub", |r| r.ub_bits = 0.5f64.to_bits(), false),
            ("ub", |r| r.ub_bits = 1.0f64.to_bits(), true),
            ("ub", |r| r.ub_bits = 10.0f64.to_bits(), true),
            ("ub", |r| r.ub_bits = 10.5f64.to_bits(), false),
            ("ub", |r| r.ub_bits = f64::INFINITY.to_bits(), false),
            ("ub", |r| r.ub_bits = f64::NAN.to_bits(), false),
            ("k", |r| r.k = 0, false),
            ("k", |r| r.k = 37, false), // n = 36
        ];
        for (field, edit, ok) in cases {
            let mut req = sample_job();
            edit(&mut req);
            let checks = [req.validate().map(|_| ()), decode_job(&encode_job(&req)).map(|_| ())];
            for out in checks {
                match out {
                    Ok(()) => assert!(ok, "{field}: {req:?} must be rejected"),
                    Err(ProtoError::BadField(msg)) => {
                        assert!(!ok && msg.starts_with(field), "{field}: {msg}")
                    }
                    Err(e) => panic!("{field}: wanted BadField, got {e:?}"),
                }
            }
        }
        let mut req = sample_job();
        req.k = 36; // k = n is in domain
        assert!(req.validate().is_ok() && decode_job(&encode_job(&req)).is_ok());
        // Wire-only checks: the fault plan and the CSR structure.
        let mut req = sample_job();
        req.fault_plan_str = "not-a-plan".into();
        assert!(matches!(decode_job(&encode_job(&req)), Err(ProtoError::BadFaultPlan(_))));
        let mut req = sample_job();
        req.graph.adjncy[0] = 9999; // out-of-range neighbor
        assert!(matches!(decode_job(&encode_job(&req)), Err(ProtoError::BadGraph(_))));
    }

    #[test]
    fn stream_roundtrip_and_clean_eof() {
        let req = sample_job();
        let bytes = frame(FT_JOB, &encode_job(&req));
        let mut cursor = std::io::Cursor::new(bytes);
        let (ft, payload) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(ft, FT_JOB);
        assert_eq!(decode_job(&payload).unwrap().tag, 77);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
        // EOF mid-frame is an error, not a silent None
        let bytes = frame(FT_JOB, &encode_job(&req));
        let mut cut = std::io::Cursor::new(bytes[..HEADER_LEN + 3].to_vec());
        assert!(read_frame(&mut cut).is_err());
    }
}
