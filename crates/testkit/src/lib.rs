//! In-repo test substrate for the GP-metis reproduction.
//!
//! The workspace builds fully offline: no registry crates, ever (see
//! DESIGN.md, "Hermetic build policy"). This crate supplies the test
//! infrastructure that would otherwise come from crates.io:
//!
//! * [`prop`] — a minimal property-testing harness. Properties draw
//!   their inputs from a [`Source`], a recorded stream of SplitMix64
//!   draws; on failure the harness greedily shrinks the recorded tape
//!   (truncation + per-draw binary search toward zero) and reports the
//!   minimal counterexample it converged on. Because generators are
//!   plain functions over the draw stream, composition (`map`,
//!   `flat_map`, nested collections) needs no combinator machinery and
//!   shrinking works through it for free — the same trick
//!   hypothesis-style harnesses use.
//! * [`pin`] — golden digests: a fixed-seed case loop that folds a
//!   code path's outputs into one FNV-1a digest and asserts it against a
//!   committed literal.
//! * [`alloc`] — a counting global allocator, so a test binary can
//!   assert allocation counts and peak heap.
//!
//! Determinism: case `i` of a property run draws from
//! `SplitMix64::stream(seed, i)`, so identical seeds reproduce
//! identical case sequences — the same per-stream discipline the
//! partitioner kernels themselves rely on.

pub mod alloc;
pub mod pin;
pub mod prop;

pub use gpm_graph::digest::Fnv1a;
pub use gpm_graph::rng::SplitMix64;
pub use pin::{assert_pin, pinned};
pub use prop::{check, check_cfg, Config, PropResult, Source};
