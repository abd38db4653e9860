//! The ledger's split of lowering from engine time rests on two facts:
//! the engine calls `Tracer::topology` exactly once per simulation,
//! before its first event, in the serial engine and in the PDES tier;
//! and once stamped, the tracer leaves the serial engine on its
//! untraced path.

use columbia::machine::cluster::InterNodeFabric;
use columbia::machine::{ClusterConfig, CpuId, NodeKind};
use columbia::runtime::{execute, execute_traced};
use columbia::simnet::{
    simulate_parallel_traced_on, ByteRule, CachedFabric, ClusterFabric, FaultPlan, MptVersion,
    Peer, ProgramSet, SpmdOp,
};
use columbia_perfbench::ledger::fig11_config;
use columbia_perfbench::stamp::StampTracer;

#[test]
fn stamp_fires_once_per_lowered_simulation() {
    let (spec, cfg) = fig11_config(16);
    let mut tracer = StampTracer::default();
    let stamped = execute_traced(&spec, &cfg, &mut tracer).expect("probe config simulates");
    assert_eq!(tracer.stamps, 1);
    assert!(tracer.at.is_some());
    // Disabled from the stamp on, the serial engine builds no trace
    // record: the rest of the run is the untraced event loop, with the
    // untraced outcome.
    assert_eq!(tracer.events, 0);
    let untraced = execute(&spec, &cfg).expect("probe config simulates");
    assert_eq!(stamped.makespan.to_bits(), untraced.makespan.to_bits());

    // A stamped tracer stays disabled: a second simulation on it is
    // not stamped again.
    let first = tracer.at;
    execute_traced(&spec, &cfg, &mut tracer).expect("probe config simulates");
    assert_eq!(tracer.stamps, 1);
    assert_eq!(tracer.at, first);
}

#[test]
fn stamp_fires_once_in_the_serial_and_the_parallel_engine() {
    let nodes = 2u32;
    let per_node = 8u32;
    let cluster = ClusterConfig::uniform(NodeKind::Bx2b, nodes);
    let cpus: Vec<CpuId> = (0..nodes)
        .flat_map(|n| (0..per_node).map(move |c| CpuId::new(n, c)))
        .collect();
    let ranks = cpus.len();
    let fabric = CachedFabric::new(ClusterFabric::new(
        cluster,
        InterNodeFabric::NumaLink4,
        MptVersion::Beta,
        ranks as u32,
    ));
    let template = vec![
        SpmdOp::Compute(1.0e-4),
        SpmdOp::Send {
            to: Peer::RingOffset(1),
            bytes: ByteRule::Uniform(4096),
            tag: 1,
        },
        SpmdOp::Recv {
            from: Peer::RingOffset(-1),
            tag: 1,
        },
        SpmdOp::AllReduce { bytes: 64 },
        SpmdOp::Barrier,
    ];
    let set = ProgramSet::spmd(ranks, template);
    for threads in [1, 2] {
        let mut tracer = StampTracer::default();
        simulate_parallel_traced_on(
            &set,
            &cpus,
            &fabric,
            &FaultPlan::none(),
            &mut tracer,
            threads,
        )
        .expect("ring simulates");
        assert_eq!(tracer.stamps, 1, "sim_threads {threads}");
        assert!(tracer.at.is_some());
    }
}
