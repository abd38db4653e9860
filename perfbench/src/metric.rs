//! Metric definitions and the one-line JSON result.
//!
//! [`METRICS`] is the single table of every metric the benchmark
//! reports: the README's metric table and `BENCHMARK.json` list the
//! same names, and the tests hold all three in agreement.

/// Which run reports a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `--trace 0`: what a user of `repro` sees.
    EndToEnd,
    /// `--trace 1`: the per-layer ledger.
    PerLayer,
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Which run reports it.
    pub kind: Kind,
}

const fn def(name: &'static str, unit: &'static str, lower: bool, kind: Kind) -> Def {
    Def {
        name,
        unit,
        lower_is_better: lower,
        kind,
    }
}

use Kind::{EndToEnd as E2E, PerLayer as LAYER};

/// Every metric, in the order it is printed. All timings are host
/// (wall-clock) time; simulated time only appears inside the reports
/// the golden check compares.
pub const METRICS: &[Def] = &[
    def("wall_s", "s", true, E2E),
    def("setup_s", "s", true, E2E),
    def("peak_rss_mb", "MB", true, E2E),
    def("ledger.pass_s", "s", true, LAYER),
    def("spec.compile_s", "s", true, LAYER),
    def("spec.points", "count", false, LAYER),
    def("sweep.points", "count", false, LAYER),
    def("sweep.busy_s", "s", true, LAYER),
    def("sweep.point_p50_s", "s", true, LAYER),
    def("sweep.point_p90_s", "s", true, LAYER),
    def("sweep.point_max_s", "s", true, LAYER),
    def("sweep.idle_share", "fraction", true, LAYER),
    def("exec.lower_s", "s", true, LAYER),
    def("exec.lower_slope", "exponent", true, LAYER),
    def("fabric.build_s", "s", true, LAYER),
    def("fabric.build_slope", "exponent", true, LAYER),
    def("engine.run_s", "s", true, LAYER),
    def("engine.slope", "exponent", true, LAYER),
    def("engine.ops_per_s", "ops/s", false, LAYER),
    def("pdes.run_s", "s", true, LAYER),
    def("pdes.speedup", "ratio", false, LAYER),
    def("report.render_s", "s", true, LAYER),
    def("obs.sweep_s", "s", true, LAYER),
    def("obs.analyze_s", "s", true, LAYER),
    def("obs.export_s", "s", true, LAYER),
    def("obs.bundles", "count", false, LAYER),
    def("obs.trace_bytes", "bytes", true, LAYER),
    def("obs.analysis_bytes", "bytes", true, LAYER),
];

/// The definition of metric `name`.
///
/// # Panics
/// If `name` is not in [`METRICS`] — a benchmark bug, not an input.
pub fn lookup(name: &str) -> &'static Def {
    METRICS
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not defined in METRICS"))
}

/// Names: a letter or digit, then letters, digits, `_`, `.` and `-`,
/// at most 64 characters.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Its definition.
    pub def: &'static Def,
    /// The measured value, with all its digits.
    pub value: f64,
}

impl Metric {
    /// A value of the metric named `name`.
    pub fn new(name: &str, value: f64) -> Self {
        Metric {
            def: lookup(name),
            value,
        }
    }
}

/// Operations attempted and the failures among them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (experiment reports, probe simulations).
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation, failed when `failure` is `Some`.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failures.push(f);
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`. A
/// value that is not finite is written as 0 and makes the run
/// incorrect, since no metric here can legitimately be NaN or infinite.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failures.is_empty() && tally.attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.def.name, v, m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        tally.attempted,
        tally.failures.len(),
        body.join(", ")
    )
}
