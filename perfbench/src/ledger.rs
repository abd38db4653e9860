//! The per-layer host-time ledger (`--trace 1`).
//!
//! Every number here is host time measured from outside the library:
//! around calls into each layer's public functions, from `obs::host`
//! sweep-point spans, and from [`StampTracer`]'s one topology stamp per
//! simulation. The program under test gains no instrumentation.
//!
//! | layer | measured by |
//! |---|---|
//! | `core::spec` | timing `compile_all` |
//! | `core::sweep` + `par` | `obs::host` job spans of one workload pass |
//! | `runtime::exec` lowering | `execute_traced` call → stamp, minus fabric build |
//! | `simnet::fabric` | timing `CachedFabric::new` |
//! | `simnet::engine` | stamp → `execute_traced` return (untraced loop) |
//! | `simnet::pdes` | Columbia points at `sim_threads` 1 and N, minus fabric build |
//! | `core::report` | timing `Report::to_text` |
//! | `obs` | a captured pass: sweep, `analyze`, export |

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use columbia::machine::cluster::InterNodeFabric;
use columbia::machine::{ClusterConfig, NodeId};
use columbia::npbmz::bench::build_spec;
use columbia::npbmz::{MzBenchmark, MzClass, MzRunConfig};
use columbia::runtime::{
    execute_traced, CompilerVersion, ExecConfig, Placement, PlacementStrategy, WorkloadSpec,
};
use columbia::simnet::{set_sim_threads, CachedFabric, ClusterFabric, FaultPlan, MptVersion};

use crate::metric::{Metric, Tally};
use crate::stamp::StampTracer;
use crate::stats::{loglog_slope, median, percentile};
use crate::workload::{
    check, compile_all, run_pass, Capture, Experiment, PassOut, Threads, Workload,
};

/// One of the two fabrics the Columbia points build: the Columbia
/// cluster with beta MPT, sized for `ranks`.
#[derive(Debug, Clone, Copy)]
pub struct ColumbiaFabric {
    /// Ranks the fabric serves (the slope's x).
    pub ranks: usize,
    /// The inter-node fabric.
    pub inter: InterNodeFabric,
}

impl ColumbiaFabric {
    fn build(self) -> ClusterFabric {
        let ranks = self.ranks as u32;
        ClusterFabric::new(
            ClusterConfig::columbia(),
            self.inter,
            MptVersion::Beta,
            ranks,
        )
    }
}

/// The full machine over InfiniBand and the NUMAlink4 subsystem, as the
/// Columbia experiment builds them.
pub fn columbia_fabrics() -> Vec<ColumbiaFabric> {
    let cluster = ClusterConfig::columbia();
    vec![
        ColumbiaFabric {
            ranks: cluster.total_cpus() as usize,
            inter: InterNodeFabric::InfiniBand,
        },
        ColumbiaFabric {
            ranks: cluster.numalink4_subsystem.len() * 512,
            inter: InterNodeFabric::NumaLink4,
        },
    ]
}

/// What the ledger measures, and how often.
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    /// The workload's thread counts.
    pub threads: Threads,
    /// Spec-compile repetitions (median reported).
    pub compile_reps: usize,
    /// Rank counts of the Fig-11-shaped BT-MZ class E lowering probe.
    pub probe_ranks: Vec<usize>,
    /// Probe repetitions per rank count (medians reported).
    pub probe_reps: usize,
    /// Simulation threads of the PDES comparison.
    pub pdes_threads: usize,
    /// PDES comparison repetitions per thread count.
    pub pdes_reps: usize,
    /// The fabrics the PDES experiments build; their build time is
    /// taken out of the PDES times.
    pub pdes_fabrics: Vec<ColumbiaFabric>,
    /// Where a captured pass writes its documents.
    pub scratch: PathBuf,
}

/// Run the ledger: one instrumented pass of `exps` (the experiments of
/// `workload`), the lowering probe, and the PDES comparison over
/// `pdes_exps`. A workload that captures supplies the `obs` numbers
/// from its own pass; for the others one more pass is run, captured.
/// Returns every per-layer metric and the operations it checked.
pub fn run(
    workload: Workload,
    exps: &[Experiment],
    pdes_exps: &[Experiment],
    cfg: &LedgerConfig,
) -> Result<(Vec<Metric>, Tally), String> {
    let mut metrics = Vec::new();
    let mut tally = Tally::default();

    // core::spec — compile alone, repeated.
    let mut compile = Vec::new();
    for _ in 0..cfg.compile_reps.max(1) {
        let t = Instant::now();
        black_box(compile_all(exps)?);
        compile.push(t.elapsed().as_secs_f64());
    }

    // One workload pass with host spans on (and full capture if the
    // workload captures).
    let mode = if workload.captures() {
        Capture::Full
    } else {
        Capture::Host
    };
    let pass = run_pass(exps, cfg.threads, mode, &cfg.scratch)?;
    tally.absorb(check(exps, &pass.rendered));
    metrics.push(Metric::new("ledger.pass_s", pass.total_s));
    metrics.push(Metric::new("spec.compile_s", median(&compile)));
    metrics.push(Metric::new("spec.points", pass.points as f64));
    metrics.extend(sweep_metrics(&pass, cfg.threads.jobs));

    let probe = probe(cfg, &mut tally);
    metrics.extend(probe.metrics);
    metrics.extend(pdes(pdes_exps, cfg, probe.pdes_fabric_s, &mut tally)?);

    metrics.push(Metric::new("report.render_s", pass.render_s));
    let captured = if workload.captures() {
        pass
    } else {
        let p = run_pass(exps, cfg.threads, Capture::Full, &cfg.scratch)?;
        tally.absorb(check(exps, &p.rendered));
        p
    };
    metrics.push(Metric::new("obs.sweep_s", captured.sweep_s));
    metrics.push(Metric::new("obs.analyze_s", captured.analyze_s));
    metrics.push(Metric::new("obs.export_s", captured.export_s));
    metrics.push(Metric::new("obs.bundles", captured.bundles as f64));
    metrics.push(Metric::new("obs.trace_bytes", captured.trace_bytes as f64));
    metrics.push(Metric::new(
        "obs.analysis_bytes",
        captured.analysis_bytes as f64,
    ));
    Ok((metrics, tally))
}

/// `core::sweep` + `par`: the pass's sweep-point spans. Idle share is
/// the pool's worker time (`jobs` × sweep wall) not inside a span.
fn sweep_metrics(pass: &PassOut, jobs: usize) -> Vec<Metric> {
    let spans: Vec<f64> = pass
        .host
        .iter()
        .flat_map(|h| &h.spans)
        .filter(|s| s.cat == "host.job")
        .map(|s| s.duration())
        .collect();
    let busy: f64 = spans.iter().sum();
    let capacity = jobs as f64 * pass.sweep_s;
    vec![
        Metric::new("sweep.points", spans.len() as f64),
        Metric::new("sweep.busy_s", busy),
        Metric::new("sweep.point_p50_s", percentile(&spans, 0.5)),
        Metric::new("sweep.point_p90_s", percentile(&spans, 0.9)),
        Metric::new("sweep.point_max_s", percentile(&spans, 1.0)),
        Metric::new("sweep.idle_share", 1.0 - busy / capacity),
    ]
}

struct Probe {
    metrics: Vec<Metric>,
    /// Summed median build time of the PDES experiments' fabrics.
    pdes_fabric_s: f64,
}

/// A Fig-11-shaped run: BT-MZ class E, `procs` × 1 over NUMAlink4 with
/// beta MPT, on as many 512-CPU nodes as the ranks need but at least
/// two — the configuration `specs/fig11.toml` sweeps.
pub fn fig11_config(procs: usize) -> (WorkloadSpec, ExecConfig) {
    let mut run = MzRunConfig::new(MzBenchmark::BtMz, MzClass::E, procs, 1);
    run.nodes = procs.div_ceil(512).max(2) as u32;
    let (spec, _) = build_spec(&run);
    let cluster = ClusterConfig::uniform(run.kind, run.nodes);
    let nodes: Vec<NodeId> = (0..run.nodes).map(NodeId).collect();
    let placement = Placement::new(&cluster, &nodes, procs, 1, PlacementStrategy::Dense);
    let cfg = ExecConfig {
        cluster,
        nodes,
        inter: run.inter,
        mpt: run.mpt,
        placement,
        compiler: CompilerVersion::V7_1,
        pinning: run.pinning,
        faults: FaultPlan::none(),
    };
    (spec, cfg)
}

fn time_fabric(build: impl Fn() -> ClusterFabric) -> f64 {
    let t = Instant::now();
    black_box(CachedFabric::new(build()));
    t.elapsed().as_secs_f64()
}

/// `runtime::exec`, `simnet::fabric` and `simnet::engine`: time the
/// probe's `execute_traced` calls and the fabrics' construction, at
/// every probe rank count, then fit the log-log slopes.
fn probe(cfg: &LedgerConfig, tally: &mut Tally) -> Probe {
    set_sim_threads(1);
    let mut lower_pts = Vec::new();
    let mut fabric_pts = Vec::new();
    let mut engine_pts = Vec::new();
    let mut fabric_total = 0.0;
    let mut largest = (0.0, 0.0, 0.0); // (lower_s, engine_s, ops)
    for &ranks in &cfg.probe_ranks {
        let (spec, exec) = fig11_config(ranks);
        let (mut lower, mut fabric, mut engine) = (Vec::new(), Vec::new(), Vec::new());
        let mut makespan: Option<u64> = None;
        for _ in 0..cfg.probe_reps.max(1) {
            let build = time_fabric(|| exec.fabric());
            let mut stamp = StampTracer::default();
            let call = Instant::now();
            let result = execute_traced(&spec, &exec, &mut stamp);
            let done = Instant::now();
            let failure = match result {
                Err(e) => Some(format!("probe {ranks} ranks: {e}")),
                Ok(_) if stamp.stamps != 1 => Some(format!(
                    "probe {ranks} ranks: topology stamped {} times",
                    stamp.stamps
                )),
                Ok(_) if stamp.events != 0 => Some(format!(
                    "probe {ranks} ranks: {} trace events after the stamp",
                    stamp.events
                )),
                Ok(out) => {
                    let at = stamp.at.expect("the one stamp recorded its time");
                    let bits = out.makespan.to_bits();
                    if *makespan.get_or_insert(bits) != bits {
                        Some(format!(
                            "probe {ranks} ranks: makespan changed between repetitions"
                        ))
                    } else {
                        lower.push((at - call).as_secs_f64() - build);
                        fabric.push(build);
                        engine.push((done - at).as_secs_f64());
                        None
                    }
                }
            };
            tally.record(failure);
        }
        let (l, f, e) = (median(&lower), median(&fabric), median(&engine));
        println!(
            "# probe {ranks:>5} ranks: lower {l:.6} s  fabric {f:.6} s  engine {e:.6} s  ({} ops)",
            spec.total_ops()
        );
        lower_pts.push((ranks as f64, l));
        fabric_pts.push((ranks as f64, f));
        engine_pts.push((ranks as f64, e));
        fabric_total += f;
        largest = (l, e, spec.total_ops() as f64);
    }

    let mut pdes_fabric_s = 0.0;
    for case in &cfg.pdes_fabrics {
        let times: Vec<f64> = (0..cfg.probe_reps.max(1))
            .map(|_| time_fabric(|| case.build()))
            .collect();
        let f = median(&times);
        println!("# fabric {:>5} ranks: {f:.6} s", case.ranks);
        fabric_pts.push((case.ranks as f64, f));
        fabric_total += f;
        pdes_fabric_s += f;
    }

    let (lower_s, engine_s, ops) = largest;
    Probe {
        metrics: vec![
            Metric::new("exec.lower_s", lower_s),
            Metric::new("exec.lower_slope", loglog_slope(&lower_pts)),
            Metric::new("fabric.build_s", fabric_total),
            Metric::new("fabric.build_slope", loglog_slope(&fabric_pts)),
            Metric::new("engine.run_s", engine_s),
            Metric::new("engine.slope", loglog_slope(&engine_pts)),
            Metric::new("engine.ops_per_s", ops / engine_s),
        ],
        pdes_fabric_s,
    }
}

/// `simnet::pdes`: the PDES experiments at one simulation thread and at
/// `pdes_threads`, alternating, each minus its fabrics' build time.
fn pdes(
    exps: &[Experiment],
    cfg: &LedgerConfig,
    fabric_s: f64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for rep in 0..cfg.pdes_reps.max(1) {
        let mut order = [1, cfg.pdes_threads.max(1)];
        if rep % 2 == 1 {
            order.reverse();
        }
        for sim_threads in order {
            let threads = Threads {
                jobs: 1,
                sim_threads,
            };
            let pass = run_pass(exps, threads, Capture::Off, &cfg.scratch)?;
            tally.absorb(check(exps, &pass.rendered));
            let secs = pass.sweep_s - fabric_s;
            if sim_threads == 1 {
                serial.push(secs);
            } else {
                parallel.push(secs);
            }
        }
    }
    // With one usable CPU both sides ran serially; one median serves.
    if parallel.is_empty() {
        parallel = serial.clone();
    }
    let par = median(&parallel);
    Ok(vec![
        Metric::new("pdes.run_s", par),
        Metric::new("pdes.speedup", median(&serial) / par),
    ])
}
