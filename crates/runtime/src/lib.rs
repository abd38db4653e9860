//! Virtual programming models on top of the Columbia machine model.
//!
//! The paper runs its workloads under four paradigms — pure MPI, pure
//! OpenMP, hybrid MPI+OpenMP, and NASA's MLP (fork + shared-memory
//! arenas) — under different thread/process placements, with and
//! without pinning, compiled by four Intel compiler versions. Each of
//! those knobs is a module here:
//!
//! * [`placement`] — maps ranks and threads to physical CPUs (dense,
//!   strided, multi-node block), tracking which CPUs are active so the
//!   memory model can count bus sharers; models the §4.6.2 boot-cpuset
//!   interference of full 512-CPU runs;
//! * [`pinning`] — the §4.3 pinning model: unpinned threads migrate
//!   away from their first-touch pages and pay remote-access penalties;
//! * [`compiler`] — per-(version, kernel-shape) code-generation factors
//!   calibrated to Fig. 8 and Table 4;
//! * [`compute`] — the roofline + Amdahl node compute model: costs one
//!   [`WorkPhase`] on a node flavour for a thread team;
//! * [`mlp`] — Multi-Level Parallelism: fork-spawned groups exchanging
//!   boundary data through shared-memory arenas;
//! * [`exec`] — the executor tying it together: a [`WorkloadSpec`]
//!   (per-rank programs of work and communication) is costed and fed to
//!   the `columbia-simnet` discrete-event engine.

pub mod compiler;
pub mod compute;
pub mod exec;
pub mod mlp;
pub mod pinning;
pub mod placement;

pub use compiler::{CompilerVersion, KernelClass};
pub use compute::{NodeComputeModel, WorkPhase};
pub use exec::{execute, execute_traced, ExecConfig, LoweredSpec, SpecOp, WorkloadSpec};
pub use pinning::Pinning;
pub use placement::{Placement, PlacementStrategy};
