//! # swmpi — in-process MPI-like rank runtime + TaihuLight network model
//!
//! The paper's CAM-SE runs as "MPI + X": one MPI process per core group,
//! OpenACC/Athread inside. This crate supplies the MPI side of the
//! reproduction at two fidelities:
//!
//! * **Functional**: [`runner::run_ranks`] executes one closure per rank on
//!   its own thread with real point-to-point channels ([`comm`]) and
//!   collectives ([`collective`]) — enough concurrency to genuinely validate
//!   the redesigned, overlap-capable boundary exchange of the paper's
//!   Section 7.6.
//! * **Modeled**: [`netmodel::NetworkModel`] prices messages on the
//!   TaihuLight's two-level interconnect (fully connected supernodes of 256
//!   processors under central switches) for the full-machine scaling figures
//!   that no laptop can run functionally.
//!
//! Point-to-point traffic flows through a transport seam with two
//! implementations: the pooled in-process mailbox (the allocation-free
//! fast path) and a byte-oriented loopback TCP backend ([`tcp`]) with
//! CRC-framed messages and reconnect/backoff. On top of the TCP backend,
//! [`process::process_world`] runs ranks as *real child processes* under a
//! supervisor that respawns killed ranks from their checkpoints — the
//! elastic-rank failure model of the paper's resilience story.

#![forbid(unsafe_code)]

pub mod collective;
pub mod comm;
pub mod fault;
pub mod netmodel;
pub mod process;
pub mod runner;
pub mod tcp;
pub mod topology;
mod transport;
pub mod wire;

pub use collective::{Collectives, ReduceLink, ReduceOp};
pub use comm::{Comm, CommConfig, CommError, CommStats, Message, RecvRequest, ANY_SOURCE};
pub use fault::{FaultAction, FaultPlan};
pub use netmodel::{Locality, NetworkModel};
pub use process::{process_world, ElasticLink};
pub use topology::{census, sfc_neighbor_pairs, LocalityCensus, Placement};
pub use runner::{
    run_ranks, run_ranks_tcp, run_ranks_with, try_run_ranks, RankCtx, RankError, WorldOptions,
};
