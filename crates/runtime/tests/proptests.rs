//! Property-based tests over placement, the compute model, and the
//! lowering of workload specs onto the engine.

use columbia_machine::cluster::{ClusterConfig, InterNodeFabric, NodeId};
use columbia_machine::node::{NodeKind, NodeModel};
use columbia_runtime::compiler::{CompilerVersion, KernelClass};
use columbia_runtime::compute::{NodeComputeModel, WorkPhase};
use columbia_runtime::exec::{execute, ExecConfig, LoweredSpec, SpecOp, WorkloadSpec};
use columbia_runtime::pinning::Pinning;
use columbia_runtime::placement::{Placement, PlacementStrategy};
use columbia_simnet::engine::{simulate_on, Op};
use columbia_simnet::fabric::{CachedFabric, MptVersion};
use columbia_simnet::program::Programs;
use columbia_simnet::FaultPlan;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::HashSet;

fn any_kind() -> impl Strategy<Value = NodeKind> {
    prop::sample::select(vec![NodeKind::Altix3700, NodeKind::Bx2a, NodeKind::Bx2b])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn placement_never_double_books_a_cpu(
        ranks in 1usize..100,
        threads in 1usize..4,
        stride in 1u32..4,
    ) {
        prop_assume!(ranks * threads * stride as usize <= 512);
        let cluster = ClusterConfig::uniform(NodeKind::Bx2b, 1);
        let strategy = if stride == 1 {
            PlacementStrategy::Dense
        } else {
            PlacementStrategy::Strided(stride)
        };
        let p = Placement::single_node(&cluster, NodeId(0), ranks, threads, strategy);
        let mut seen = HashSet::new();
        for row in &p.cpus {
            for c in row {
                prop_assert!(seen.insert((c.node, c.cpu)), "CPU {c:?} double-booked");
                prop_assert!(c.cpu < 512);
            }
        }
        prop_assert_eq!(p.total_cpus(), ranks * threads);
    }

    #[test]
    fn capped_placement_respects_the_cap(
        ranks in 1usize..1000,
        cap in 100u32..508,
    ) {
        let nodes_needed = (ranks as u32).div_ceil(cap).max(1);
        let cluster = ClusterConfig::uniform(NodeKind::Bx2b, nodes_needed);
        let nodes: Vec<NodeId> = (0..nodes_needed).map(NodeId).collect();
        let p = Placement::new(&cluster, &nodes, ranks, 1, PlacementStrategy::DenseCapped(cap));
        for node in &p.nodes {
            let active = p.active_on_node(*node);
            prop_assert!(active.len() as u32 <= cap);
            prop_assert!(active.iter().all(|&c| c < cap));
        }
        prop_assert!(!p.boot_cpuset_overlap);
    }

    #[test]
    fn phase_time_is_monotone_in_flops_and_bytes(
        kind in any_kind(),
        flops in 1e6f64..1e12,
        bytes in 1e6f64..1e11,
        threads in 1u32..32,
    ) {
        let model = NodeComputeModel::baseline(NodeModel::new(kind), threads);
        let base = WorkPhase::new(flops, bytes, 64 << 20, 0.2, KernelClass::BlockSolver);
        let mut more_flops = base;
        more_flops.flops *= 2.0;
        let mut more_bytes = base;
        more_bytes.mem_bytes *= 2.0;
        let t0 = model.seconds(&base, threads);
        prop_assert!(t0 > 0.0);
        prop_assert!(model.seconds(&more_flops, threads) >= t0);
        prop_assert!(model.seconds(&more_bytes, threads) >= t0);
    }

    #[test]
    fn more_threads_never_slower_modulo_overhead(
        kind in any_kind(),
        flops in 1e9f64..1e12,
    ) {
        // For a compute-dominated phase, doubling the team must not
        // slow it down (fork-join overhead is microseconds).
        let phase = WorkPhase::new(flops, 1.0, 64 << 20, 0.3, KernelClass::BlockSolver);
        let model = NodeComputeModel::baseline(NodeModel::new(kind), 64);
        let t1 = model.seconds(&phase, 1);
        let t8 = model.seconds(&phase, 8);
        prop_assert!(t8 <= t1 * 1.001, "t1={t1} t8={t8}");
    }

    #[test]
    fn bx2b_never_loses_to_bx2a(
        flops in 1e6f64..1e12,
        bytes in 1e6f64..1e10,
        ws_mb in 1u64..64,
    ) {
        // Same link generation, faster clock, bigger cache: the BX2b
        // must dominate the BX2a on any single phase.
        let phase = WorkPhase::new(flops, bytes, ws_mb << 20, 0.15, KernelClass::Multigrid);
        let a = NodeComputeModel::baseline(NodeModel::new(NodeKind::Bx2a), 1);
        let b = NodeComputeModel::baseline(NodeModel::new(NodeKind::Bx2b), 1);
        prop_assert!(b.seconds(&phase, 1) <= a.seconds(&phase, 1) * 1.0001);
    }
}

/// `Placement::mean_bus_sharers` as defined: the mean over every node's
/// active CPUs of `CBrick::bus_sharers(c, active)`, summed per CPU.
fn mean_bus_sharers_by_definition(p: &Placement, cluster: &ClusterConfig) -> f64 {
    let mut total = 0.0f64;
    let mut n = 0.0f64;
    for node in &p.nodes {
        let brick = cluster.node_model(*node).brick;
        let active = p.active_on_node(*node);
        for &c in &active {
            total += brick.bus_sharers(c, &active) as f64;
            n += 1.0;
        }
    }
    total / n.max(1.0)
}

/// The strategy with selector `sel` (0 dense, 1 strided, 2 capped),
/// and the worker slots it leaves on each node.
fn strategy_of(sel: u8, stride: u32, cap: u32) -> (PlacementStrategy, u32) {
    match sel {
        0 => (PlacementStrategy::Dense, 512),
        1 => (PlacementStrategy::Strided(stride), 512 / stride),
        _ => (PlacementStrategy::DenseCapped(cap), cap),
    }
}

/// A random placement over `nodes` of a mixed cluster: the node list
/// starts anywhere and may run backwards, and the worker count falls
/// anywhere in the strategy's capacity (partly filled last node
/// included).
#[allow(clippy::too_many_arguments)]
fn random_placement(
    kinds: &[NodeKind],
    first: u32,
    n_nodes: u32,
    reverse: u8,
    sel: u8,
    stride: u32,
    cap: u32,
    fill: f64,
    threads: usize,
) -> (ClusterConfig, Placement) {
    let cluster = ClusterConfig {
        nodes: kinds.to_vec(),
        numalink4_subsystem: Vec::new(),
        ib_cards_per_node: 8,
        ib_connections_per_card: 64 * 1024,
    };
    let total = kinds.len() as u32;
    let mut nodes: Vec<NodeId> = (0..n_nodes.min(total))
        .map(|i| NodeId((first + i) % total))
        .collect();
    if reverse == 1 {
        nodes.reverse();
    }
    let (strategy, slots) = strategy_of(sel, stride, cap);
    // A team no wider than one node's slots leaves room for a rank.
    let threads = threads.min(slots as usize);
    let capacity = (slots as usize * nodes.len()) / threads;
    let ranks = ((capacity as f64 * fill) as usize).clamp(1, capacity);
    let placement = Placement::new(&cluster, &nodes, ranks, threads, strategy);
    (cluster, placement)
}

/// One communication-safe phase of a generated workload, decoded from
/// a random word: every rank runs the same shape, so sends, receives,
/// exchanges, and collectives always match up.
fn push_phase(spec: &mut WorkloadSpec, word: u64, rng: &mut TestRng) {
    let n = spec.nranks();
    let bytes = 1 + rng.next_u64() % 65_536;
    let tag = rng.next_u64() % 4;
    let kernel = [
        KernelClass::ConjugateGradient,
        KernelClass::Fourier,
        KernelClass::Multigrid,
        KernelClass::BlockSolver,
        KernelClass::LineRelaxation,
        KernelClass::LuSgs,
        KernelClass::Streaming,
    ][(rng.next_u64() % 7) as usize];
    let phase = WorkPhase::new(
        1e6 + rng.next_f64() * 1e10,
        rng.next_f64() * 1e9,
        1 + rng.next_u64() % (256 << 20),
        0.05 + rng.next_f64() * 0.5,
        kernel,
    )
    .with_remote_share(rng.next_f64());
    let root = (rng.next_u64() as usize) % n;
    for (r, ops) in spec.ranks.iter_mut().enumerate() {
        match word % 8 {
            0 | 1 => {
                let mut p = phase;
                p.flops *= 1.0 + (r % 3) as f64;
                ops.push(SpecOp::Work(p));
            }
            2 => {
                ops.push(SpecOp::Send {
                    to: (r + 1) % n,
                    bytes,
                    tag,
                });
                ops.push(SpecOp::Recv {
                    from: (r + n - 1) % n,
                    tag,
                });
            }
            3 if n.is_multiple_of(2) => ops.push(SpecOp::Exchange {
                with: r ^ 1,
                bytes,
                tag,
            }),
            3 | 4 => ops.push(SpecOp::Barrier),
            5 => ops.push(SpecOp::AllReduce { bytes }),
            6 => ops.push(SpecOp::AllToAll {
                bytes_per_pair: bytes,
            }),
            _ => ops.push(SpecOp::Bcast { root, bytes }),
        }
    }
}

/// The `SpecOp → Op` lowering written out: a compute phase costs what
/// the home node's model says for the rank's thread team, with the
/// run-wide units, pool, sharers, and boot-cpuset overlap.
fn lower_by_hand(spec: &WorkloadSpec, cfg: &ExecConfig) -> Vec<Vec<Op>> {
    let units = cfg.placement.total_cpus() as u32;
    let threads = cfg.placement.threads() as u32;
    let sharers = mean_bus_sharers_by_definition(&cfg.placement, &cfg.cluster);
    spec.ranks
        .iter()
        .enumerate()
        .map(|(r, ops)| {
            let model = NodeComputeModel::new(
                cfg.cluster.node_model(cfg.placement.rank_cpu(r).node),
                cfg.compiler,
                cfg.pinning,
                units,
                512u32.min(units.max(2)),
                sharers,
                cfg.placement.boot_cpuset_overlap,
            );
            ops.iter()
                .map(|op| match *op {
                    SpecOp::Work(ref phase) => Op::Compute(model.seconds(phase, threads)),
                    SpecOp::Send { to, bytes, tag } => Op::Send { to, bytes, tag },
                    SpecOp::Recv { from, tag } => Op::Recv { from, tag },
                    SpecOp::Exchange { with, bytes, tag } => Op::Exchange { with, bytes, tag },
                    SpecOp::Barrier => Op::Barrier,
                    SpecOp::AllReduce { bytes } => Op::AllReduce { bytes },
                    SpecOp::AllToAll { bytes_per_pair } => Op::AllToAll { bytes_per_pair },
                    SpecOp::Bcast { root, bytes } => Op::Bcast { root, bytes },
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The per-bus closed form of `mean_bus_sharers` equals the per-CPU
    /// definition bit for bit, over multi-node dense, strided, and
    /// capped placements on mixed clusters.
    #[test]
    fn mean_bus_sharers_matches_its_definition(
        kinds in prop::collection::vec(any_kind(), 1..5),
        first in 0u32..4,
        n_nodes in 1u32..5,
        reverse in 0u8..2,
        sel in 0u8..3,
        stride in 1u32..5,
        cap in 1u32..513,
        fill in 0.0f64..1.0,
        threads in 1usize..4,
    ) {
        let (cluster, p) = random_placement(
            &kinds, first, n_nodes, reverse, sel, stride, cap, fill, threads,
        );
        let fast = p.mean_bus_sharers(&cluster);
        let defined = mean_bus_sharers_by_definition(&p, &cluster);
        prop_assert_eq!(fast.to_bits(), defined.to_bits(), "{} vs {}", fast, defined);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine's view of a spec reads, op for op, what the written-out
    /// lowering produces, and `execute` on the view gives the outcome of
    /// simulating the written-out programs.
    #[test]
    fn lowered_view_matches_the_written_out_lowering(
        kinds in prop::collection::vec(any_kind(), 1..4),
        n_nodes in 1u32..4,
        sel in 0u8..3,
        stride in 1u32..5,
        cap in 1u32..64,
        fill in 0.0f64..1.0,
        threads in 1usize..4,
        compiler in 0usize..4,
        unpinned in 0u8..2,
        phases in prop::collection::vec(0u64..64, 1..10),
        seed in 0u64..1_000_000,
    ) {
        let (cluster, placement) =
            random_placement(&kinds, 0, n_nodes, 0, sel, stride, cap, fill, threads);
        let nodes = placement.nodes.clone();
        let mut spec = WorkloadSpec::with_ranks(placement.ranks());
        let mut rng = TestRng::new(seed);
        for &word in &phases {
            push_phase(&mut spec, word, &mut rng);
        }
        let cfg = ExecConfig {
            cluster,
            nodes,
            inter: InterNodeFabric::NumaLink4,
            mpt: MptVersion::Beta,
            placement,
            compiler: CompilerVersion::ALL[compiler],
            pinning: if unpinned == 1 { Pinning::Unpinned } else { Pinning::Pinned },
            faults: FaultPlan::none(),
        };
        let by_hand = lower_by_hand(&spec, &cfg);
        let view = LoweredSpec::new(&spec, &cfg);
        prop_assert_eq!(view.n_ranks(), by_hand.len());
        for (r, ops) in by_hand.iter().enumerate() {
            prop_assert_eq!(view.len_of(r), ops.len());
            for pc in 0..=ops.len() {
                prop_assert_eq!(view.op(r, pc), ops.get(pc).copied(), "rank {} pc {}", r, pc);
            }
        }
        let fabric = CachedFabric::new(cfg.fabric());
        let want = simulate_on(by_hand.as_slice(), &cfg.placement.rank_cpus(), &fabric, &cfg.faults)
            .expect("generated workloads never deadlock");
        let got = execute(&spec, &cfg).expect("generated workloads never deadlock");
        prop_assert_eq!(got.makespan.to_bits(), want.makespan.to_bits());
        prop_assert_eq!(got, want);
    }
}
