//! Umbrella crate for the GP-metis reproduction.
//!
//! Re-exports every workspace crate under one roof so the examples and
//! cross-crate integration tests have a single dependency, and so a
//! downstream user can pull the whole system with one `use`.
//!
//! * [`graph`] — CSR graphs, generators, I/O, metrics.
//! * [`faults`] — deterministic fault injection (`GPM_FAULTS`).
//! * [`gpu`] — the SIMT GPU simulator substrate.
//! * [`msg`] — the message-passing (MPI stand-in) substrate.
//! * [`metis`] — the serial multilevel baseline.
//! * [`mtmetis`] — the shared-memory parallel baseline.
//! * [`parmetis`] — the distributed-memory baseline.
//! * [`gpmetis`] — the paper's hybrid CPU-GPU partitioner.
//! * [`pool`] — the process-wide work-stealing executor.
//! * [`serve`] — the partition-as-a-service daemon and its client.
//! * [`cli`] — the engine flags `gpartition` and `gpm-loadgen` share.

pub use gp_metis as gpmetis;
pub use gpm_faults as faults;
pub use gpm_gpu_sim as gpu;
pub use gpm_graph as graph;
pub use gpm_metis as metis;
pub use gpm_msg as msg;
pub use gpm_mtmetis as mtmetis;
pub use gpm_parmetis as parmetis;
pub use gpm_pool as pool;
pub use gpm_serve as serve;

pub mod cli;
