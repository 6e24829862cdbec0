//! The engine flags shared by `gpartition` and `gpm-loadgen submit`:
//! `--seed --ub --algo --fallback --gpu-threshold --threads --ranks`.
//!
//! Both tools start from [`JobRequest::new`] and let [`engine_flag`] read
//! these flags into it, so a flag means the same thing in both, and a
//! served job runs with exactly the configuration of the `gpartition` run
//! with the same flags. Domain checks live in [`JobRequest::validate`];
//! this parser only rejects what no request can carry, and
//! [`check_engine_flags`] rejects gpmetis-only flags given to another
//! engine.

use gpm_serve::protocol::{Algo, JobRequest};
use std::str::FromStr;

/// Why an engine flag could not be read into the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// The flag is last on the command line, without its value.
    MissingValue(String),
    /// The value does not parse as the flag's type (or names no engine).
    BadValue { flag: String, value: String },
    /// `--gpu-threshold 0`: on the wire 0 means "engine default", so the
    /// flag takes a switchover of at least 1.
    ZeroGpuThreshold,
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlagError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            FlagError::BadValue { flag, value } => write!(f, "{flag}: bad value {value:?}"),
            FlagError::ZeroGpuThreshold => {
                write!(f, "--gpu-threshold must be at least 1 (0 means the engine default)")
            }
        }
    }
}

impl std::error::Error for FlagError {}

/// Read `flag` into `req` when it is an engine flag, taking its value
/// from `args`. Returns `Ok(false)` for any other flag, so the caller
/// can handle its own.
pub fn engine_flag(
    req: &mut JobRequest,
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<bool, FlagError> {
    match flag {
        "--seed" => req.seed = value(flag, args)?,
        "--ub" => req.ub_bits = value::<f64>(flag, args)?.to_bits(),
        "--algo" => {
            let name: String = value(flag, args)?;
            req.algo =
                Algo::parse(&name).ok_or(FlagError::BadValue { flag: flag.into(), value: name })?;
        }
        "--fallback" => req.fallback = true,
        "--gpu-threshold" => {
            req.gpu_threshold = value(flag, args)?;
            if req.gpu_threshold == 0 {
                return Err(FlagError::ZeroGpuThreshold);
            }
        }
        "--threads" => req.threads = value(flag, args)?,
        "--ranks" => req.ranks = value(flag, args)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Reject flags that only the gpmetis engine reads when `req` names
/// another engine, instead of silently ignoring them: the request's
/// `--fallback` and `--gpu-threshold`, plus the caller's own
/// gpmetis-only flags in `extra` as `(flag, set)` pairs. Both tools
/// call this before loading or connecting. It is a command-line rule,
/// not a request rule: a request may carry a GPU threshold for any
/// engine, and the daemon accepts it.
pub fn check_engine_flags(req: &JobRequest, extra: &[(&str, bool)]) -> Result<(), String> {
    let request_flags = [("--fallback", req.fallback), ("--gpu-threshold", req.gpu_threshold != 0)];
    let set: Vec<&str> = extra.iter().chain(&request_flags).filter(|f| f.1).map(|f| f.0).collect();
    if req.algo != Algo::GpMetis && !set.is_empty() {
        return Err(format!("--algo {} does not take {}", req.algo.name(), set.join(", ")));
    }
    Ok(())
}

/// The next argument, parsed as `flag`'s value.
fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, FlagError> {
    let v = args.next().ok_or_else(|| FlagError::MissingValue(flag.into()))?;
    v.parse().map_err(|_| FlagError::BadValue { flag: flag.into(), value: v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::csr::CsrGraph;

    fn parse(argv: &[&str]) -> Result<JobRequest, FlagError> {
        let mut req = JobRequest::new(CsrGraph::empty(), 4);
        let mut it = argv.iter().map(|s| s.to_string());
        while let Some(flag) = it.next() {
            assert!(engine_flag(&mut req, &flag, &mut it)?, "{flag} is an engine flag");
        }
        Ok(req)
    }

    #[test]
    fn reads_every_engine_flag_into_the_request() {
        let req = parse(&[
            "--seed",
            "9",
            "--ub",
            "1.1",
            "--algo",
            "parmetis",
            "--fallback",
            "--gpu-threshold",
            "400",
            "--threads",
            "3",
            "--ranks",
            "5",
        ])
        .unwrap();
        assert_eq!((req.seed, req.ub(), req.algo), (9, 1.1, Algo::ParMetis));
        assert_eq!((req.fallback, req.gpu_threshold, req.threads, req.ranks), (true, 400, 3, 5));
        // no flag: the request's defaults
        let req = parse(&[]).unwrap();
        assert_eq!((req.seed, req.ub(), req.algo), (1, 1.03, Algo::GpMetis));
        assert_eq!((req.fallback, req.gpu_threshold, req.threads, req.ranks), (false, 0, 8, 8));
    }

    #[test]
    fn rejects_what_no_request_can_carry() {
        assert_eq!(parse(&["--gpu-threshold", "0"]).unwrap_err(), FlagError::ZeroGpuThreshold);
        assert_eq!(parse(&["--threads"]).unwrap_err(), FlagError::MissingValue("--threads".into()));
        for (flag, value) in [("--algo", "kmetis"), ("--ranks", "-1"), ("--seed", "x")] {
            let e = parse(&[flag, value]).unwrap_err();
            assert_eq!(e, FlagError::BadValue { flag: flag.into(), value: value.into() });
        }
    }
}
