//! Graph substrate for the GP-metis reproduction.
//!
//! Provides the CSR graph representation used throughout the partitioners
//! (the paper stores graphs as the four arrays `adjp`/`adjncy`/`adjwgt`/
//! `vwgt`; we use the Metis names `xadj`/`adjncy`/`adjwgt`/`vwgt`),
//! synthetic workload generators standing in for the DIMACS inputs,
//! graph I/O (one METIS reader, the streaming [`read_metis_mmap`] /
//! [`read_metis_streamed`], plus the writers and the DIMACS9 and
//! partition readers in [`io`]), partition-quality metrics, and small
//! deterministic RNG helpers shared by every crate in the workspace.

pub mod analysis;
pub mod boundary;
pub mod builder;
pub mod coarsen_ws;
pub mod csr;
pub mod digest;
pub mod gen;
pub mod io;
pub mod metrics;
pub mod mmap;
pub mod rng;
pub mod stream;
pub mod subgraph;

pub use boundary::BoundaryTracker;
pub use builder::GraphBuilder;
pub use coarsen_ws::{check_contraction, CoarsenWorkspace, EpochSlots};
pub use csr::{AtomicVid, CsrGraph, GraphIndex, Vid};
pub use metrics::{comm_volume, edge_cut, imbalance, part_weights, validate_partition};
pub use stream::{read_metis_mmap, read_metis_streamed};
