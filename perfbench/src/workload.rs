//! The three workloads and the pass each one repeats.
//!
//! A pass drives the library the way `repro --spec` does: load and
//! compile each spec, run its sweep plan, render the report with
//! [`Report::to_text`]. With capture on it also does what
//! `repro --trace --analyze` does: install `obs::sink`, enable
//! `obs::host`, analyze every captured simulation and serialise the
//! Perfetto export and the analysis document.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use columbia::obs::{analyze, chrome_trace_with_flows, host, sink, HostReport, ANALYSIS_SCHEMA};
use columbia::par::panic_message;
use columbia::simnet::set_sim_threads;
use columbia::spec::{compile, load_str, spec_hash};
use columbia::{Report, SweepPlan};
use serde_json::Value;

use crate::metric::Tally;
use crate::stats::permutation;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All shipped specs, untraced: the wall time of the paper
    /// reproduction.
    PaperSweep,
    /// The 10,240-rank full machine and the 2,048-rank subsystem, on
    /// the PDES tier.
    ColumbiaFull,
    /// All shipped specs with capture, analysis and export.
    TracedAnalyze,
}

/// Thread counts of one workload. Their product never exceeds the
/// host's available parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads {
    /// Sweep-pool threads (`repro --jobs`).
    pub jobs: usize,
    /// Threads per simulation (`repro --sim-threads`).
    pub sim_threads: usize,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::ColumbiaFull,
        Workload::TracedAnalyze,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::ColumbiaFull => "columbia_full",
            Workload::TracedAnalyze => "traced_analyze",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Thread counts on a host with `nproc` usable CPUs: the sweeps fan
    /// points across the pool, the Columbia run parallelises inside
    /// each simulation instead.
    pub fn threads(self, nproc: usize) -> Threads {
        let nproc = nproc.max(1);
        match self {
            Workload::ColumbiaFull => Threads {
                jobs: 1,
                sim_threads: nproc,
            },
            Workload::PaperSweep | Workload::TracedAnalyze => Threads {
                jobs: nproc,
                sim_threads: 1,
            },
        }
    }

    /// Whether a pass captures, analyzes and exports.
    pub fn captures(self) -> bool {
        self == Workload::TracedAnalyze
    }

    /// The spec stems this workload runs, in canonical order.
    pub fn spec_names(self, root: &Path) -> Result<Vec<String>, String> {
        match self {
            Workload::ColumbiaFull => Ok(vec!["columbia".into()]),
            Workload::PaperSweep | Workload::TracedAnalyze => shipped_specs(root),
        }
    }
}

/// Stems of every `specs/*.toml` under `root`, sorted.
pub fn shipped_specs(root: &Path) -> Result<Vec<String>, String> {
    let dir = root.join("specs");
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|x| x == "toml") {
            if let Some(stem) = path.file_stem() {
                names.push(stem.to_string_lossy().into_owned());
            }
        }
    }
    names.sort();
    if names.is_empty() {
        return Err(format!("{}: no specs", dir.display()));
    }
    Ok(names)
}

/// Specs whose sweep blocks each render exactly one report row, so the
/// seed may reorder the blocks and the expected report is the golden
/// with its rows reordered the same way.
const ONE_ROW_PER_BLOCK: &[&str] = &["columbia"];

/// One experiment of a pass.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Spec stem, also the golden's name.
    pub name: String,
    /// The spec file.
    pub spec: PathBuf,
    /// Order the spec's sweep blocks run in, when the seed reorders
    /// them.
    pub block_order: Option<Vec<usize>>,
    /// The exact text the rendered report must equal.
    pub expected: String,
}

/// The experiments named `names`, in the order `seed` draws. Goldens
/// are read here, once, outside every timed region.
pub fn experiments(root: &Path, names: &[String], seed: u64) -> Result<Vec<Experiment>, String> {
    permutation(names.len(), seed, 0)
        .into_iter()
        .map(|i| experiment(root, &names[i], seed))
        .collect()
}

fn experiment(root: &Path, name: &str, seed: u64) -> Result<Experiment, String> {
    let spec = root.join("specs").join(format!("{name}.toml"));
    let golden_path = root.join("tests/golden").join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(&golden_path)
        .map_err(|e| format!("{}: {e}", golden_path.display()))?;
    if !ONE_ROW_PER_BLOCK.contains(&name) {
        return Ok(Experiment {
            name: name.into(),
            spec,
            block_order: None,
            expected: golden,
        });
    }
    let text = std::fs::read_to_string(&spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let blocks = load_str(&text)
        .map_err(|e| format!("{}: {e}", spec.display()))?
        .sweeps
        .len();
    let order = permutation(blocks, seed, 1);
    let expected = reorder_rows(&golden, &order)
        .ok_or_else(|| format!("{}: fewer rows than sweep blocks", golden_path.display()))?;
    Ok(Experiment {
        name: name.into(),
        spec,
        block_order: Some(order),
        expected,
    })
}

/// `text` (a rendered report: title, header, rule, then rows) with its
/// first `order.len()` rows put in `order`.
pub fn reorder_rows(text: &str, order: &[usize]) -> Option<String> {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let rows = lines.get(3..3 + order.len())?;
    let mut out: Vec<&str> = lines[..3].to_vec();
    out.extend(order.iter().map(|&i| rows[i]));
    out.extend(&lines[3 + order.len()..]);
    Some(out.concat())
}

/// Load and compile every experiment's spec: the benchmark's set-up.
pub fn compile_all(exps: &[Experiment]) -> Result<Vec<SweepPlan>, String> {
    exps.iter()
        .map(|e| {
            let text = std::fs::read_to_string(&e.spec)
                .map_err(|err| format!("{}: {err}", e.spec.display()))?;
            let mut spec = load_str(&text).map_err(|err| format!("{}: {err}", e.name))?;
            if let Some(order) = &e.block_order {
                spec.sweeps = order.iter().map(|&i| spec.sweeps[i].clone()).collect();
            }
            compile(&spec).map_err(|err| format!("{}: {err}", e.name))
        })
        .collect()
}

/// Run every plan at `threads`, in order. A typed `SimError` or a panic
/// inside a point becomes that experiment's error; the other
/// experiments still run.
pub fn sweep(
    exps: &[Experiment],
    plans: Vec<SweepPlan>,
    threads: Threads,
) -> Vec<Result<Report, String>> {
    set_sim_threads(threads.sim_threads);
    exps.iter()
        .zip(plans)
        .map(|(e, plan)| {
            match catch_unwind(AssertUnwindSafe(|| plan.run_with_jobs(threads.jobs))) {
                Ok(Ok(report)) => Ok(report),
                Ok(Err(err)) => Err(format!("{}: {err}", e.name)),
                Err(payload) => Err(format!("{}: panicked: {}", e.name, panic_message(payload))),
            }
        })
        .collect()
}

/// Compare every rendered report byte-for-byte with its expected text.
pub fn check(exps: &[Experiment], rendered: &[Result<String, String>]) -> Tally {
    let mut tally = Tally::default();
    for (e, r) in exps.iter().zip(rendered) {
        tally.record(match r {
            Ok(text) if format!("{text}\n") == e.expected => None,
            Ok(_) => Some(format!(
                "{}: report differs from tests/golden/{}.txt",
                e.name, e.name
            )),
            Err(err) => Some(err.clone()),
        });
    }
    tally
}

/// What a pass records besides the reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capture {
    /// Nothing: the plain `repro` path.
    Off,
    /// `obs::host` spans only, for the ledger's sweep statistics.
    Host,
    /// `obs::sink` and `obs::host`, then analysis and export.
    Full,
}

/// Timings and outputs of one pass. All times are host seconds.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Whole pass: compile, sweep, render (and analyze, export).
    pub total_s: f64,
    /// Sweep plans running.
    pub sweep_s: f64,
    /// `Report::to_text` over every report.
    pub render_s: f64,
    /// `analyze` over every captured simulation.
    pub analyze_s: f64,
    /// Building and serialising both documents and writing them.
    pub export_s: f64,
    /// Sweep points compiled.
    pub points: usize,
    /// Rendered report (or error) per experiment.
    pub rendered: Vec<Result<String, String>>,
    /// The host capture, under [`Capture::Host`] and [`Capture::Full`].
    pub host: Option<HostReport>,
    /// Captured simulations.
    pub bundles: usize,
    /// Bytes of the serialised Perfetto export.
    pub trace_bytes: usize,
    /// Bytes of the serialised analysis document.
    pub analysis_bytes: usize,
    /// Content hash of the analysis document, which is deterministic.
    pub analysis_hash: String,
}

/// One pass over `exps`. `scratch` receives the exported documents
/// under [`Capture::Full`].
pub fn run_pass(
    exps: &[Experiment],
    threads: Threads,
    capture: Capture,
    scratch: &Path,
) -> Result<PassOut, String> {
    let mut out = PassOut::default();
    let start = Instant::now();
    let plans = compile_all(exps)?;
    out.points = plans.iter().map(SweepPlan::len).sum();

    if capture == Capture::Full {
        sink::install();
    }
    if capture != Capture::Off {
        host::enable();
    }
    let t = Instant::now();
    let reports = sweep(exps, plans, threads);
    out.sweep_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    out.rendered = reports
        .into_iter()
        .map(|r| r.map(|r| r.to_text()))
        .collect();
    out.render_s = t.elapsed().as_secs_f64();
    out.host = host::take();

    if capture == Capture::Full {
        export(&mut out, scratch)?;
    }
    out.total_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Analyze every captured simulation, then build, serialise and write
/// the Perfetto export (with critical-path flows) and the analysis
/// document, as `repro --trace --analyze` does.
fn export(out: &mut PassOut, scratch: &Path) -> Result<(), String> {
    let bundles = sink::take();
    out.bundles = bundles.len();

    let t = Instant::now();
    let analyses: Vec<_> = bundles
        .iter()
        .map(|b| (b.label.clone(), analyze(b)))
        .collect();
    out.analyze_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let paths: Vec<_> = analyses
        .iter()
        .map(|(_, a)| a.critical_path.clone())
        .collect();
    let trace = serde_json::to_string(&chrome_trace_with_flows(
        &bundles,
        out.host.as_ref(),
        &paths,
    ));
    let mut doc = Value::object();
    doc.set("schema", Value::String(ANALYSIS_SCHEMA.into()));
    doc.set(
        "sims",
        Value::Array(
            analyses
                .iter()
                .map(|(label, a)| {
                    let mut o = a.to_value();
                    o.set("label", Value::String(label.clone()));
                    o
                })
                .collect(),
        ),
    );
    let analysis = serde_json::to_string_pretty(&doc);
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    for (file, body) in [("trace.json", &trace), ("analysis.json", &analysis)] {
        let path = scratch.join(file);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.export_s = t.elapsed().as_secs_f64();

    out.trace_bytes = trace.len();
    out.analysis_bytes = analysis.len();
    out.analysis_hash = spec_hash(analysis.as_bytes());
    Ok(())
}
