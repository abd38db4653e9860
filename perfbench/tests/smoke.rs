//! Smoke runs on a tiny spec (`specs/trace.toml`: 16 ranks on two
//! nodes, one point): the pass, the golden check, failure accounting,
//! the seeded order and the ledger, end to end in a debug build.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use columbia::{PointOutput, SweepPlan};
use columbia_perfbench::ledger::{self, LedgerConfig};
use columbia_perfbench::metric::{Kind, METRICS};
use columbia_perfbench::workload::{
    check, compile_all, experiments, reorder_rows, run_pass, shipped_specs, sweep, Capture,
    Experiment, Threads, Workload,
};

/// `obs::sink`, `obs::host` and the simulation thread count are
/// process-global, and the test harness runs tests on parallel threads.
static GLOBALS: Mutex<()> = Mutex::new(());

fn globals() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

const TWO_JOBS: Threads = Threads {
    jobs: 2,
    sim_threads: 1,
};

fn tiny() -> Vec<Experiment> {
    experiments(&root(), &["trace".to_string()], 1).expect("trace spec and golden load")
}

#[test]
fn a_tiny_spec_matches_its_golden_with_and_without_capture() {
    let _g = globals();
    let exps = tiny();
    let plain = run_pass(&exps, TWO_JOBS, Capture::Off, &scratch("plain")).expect("pass runs");
    let tally = check(&exps, &plain.rendered);
    assert_eq!(
        (tally.attempted, tally.failures.len()),
        (1, 0),
        "{:?}",
        tally.failures
    );
    assert_eq!(plain.points, 1);
    assert!(plain.host.is_none());

    let dir = scratch("full");
    let full = run_pass(&exps, TWO_JOBS, Capture::Full, &dir).expect("captured pass runs");
    let tally = check(&exps, &full.rendered);
    assert_eq!(
        (tally.attempted, tally.failures.len()),
        (1, 0),
        "{:?}",
        tally.failures
    );
    assert!(full.bundles >= 1);
    assert!(full.trace_bytes > 0 && full.analysis_bytes > 0);
    let jobs = full.host.as_ref().expect("host capture").spans.iter();
    assert_eq!(jobs.filter(|s| s.cat == "host.job").count(), 1);
    for file in ["trace.json", "analysis.json"] {
        assert!(dir.join(file).is_file(), "{file} was not written");
    }
}

#[test]
fn a_report_that_differs_from_its_golden_is_a_failure() {
    let _g = globals();
    let mut exps = tiny();
    exps[0].expected.push('x');
    let pass = run_pass(&exps, TWO_JOBS, Capture::Off, &scratch("differs")).expect("pass runs");
    let tally = check(&exps, &pass.rendered);
    assert_eq!((tally.attempted, tally.failures.len()), (1, 1));
    assert!(tally.failures[0].contains("differs from tests/golden/trace.txt"));
}

#[test]
fn a_panicking_point_fails_its_experiment_and_the_run_goes_on() {
    let _g = globals();
    let mut bad = SweepPlan::new("Bad", "panics", &["x"]);
    bad.point_ok(|| panic!("boom"));
    let mut good = SweepPlan::new("Good", "fine", &["x"]);
    good.point_ok(|| PointOutput::row(vec!["1".into()]));
    let exp = |name: &str| Experiment {
        name: name.into(),
        spec: PathBuf::new(),
        block_order: None,
        expected: String::new(),
    };
    let out = sweep(&[exp("bad"), exp("good")], vec![bad, good], TWO_JOBS);
    let err = out[0].as_ref().expect_err("the panic is an error");
    assert!(
        err.contains("bad: panicked") && err.contains("boom"),
        "{err}"
    );
    assert!(out[1].is_ok());
}

#[test]
fn the_seed_orders_experiments_and_columbia_rows_consistently() {
    let names = shipped_specs(&root()).expect("specs listed");
    let order = |seed| -> Vec<String> {
        experiments(&root(), &names, seed)
            .expect("experiments load")
            .into_iter()
            .map(|e| e.name)
            .collect()
    };
    assert_eq!(order(7), order(7));
    let mut sorted = order(7);
    sorted.sort();
    assert_eq!(sorted, names);
    assert!((1..8).any(|s| order(s) != order(7)));

    let golden = std::fs::read_to_string(root().join("tests/golden/columbia.txt")).unwrap();
    let columbia = |seed| {
        experiments(&root(), &["columbia".to_string()], seed)
            .expect("columbia loads")
            .remove(0)
    };
    let seeds: Vec<_> = (0..16).map(columbia).collect();
    let kept = seeds
        .iter()
        .find(|e| e.block_order.as_deref() == Some(&[0, 1]));
    let swapped = seeds
        .iter()
        .find(|e| e.block_order.as_deref() == Some(&[1, 0]));
    let (kept, swapped) = (kept.expect("a seed keeps"), swapped.expect("a seed swaps"));
    assert_eq!(kept.expected, golden);
    assert_eq!(swapped.expected, reorder_rows(&golden, &[1, 0]).unwrap());
    assert_ne!(swapped.expected, golden);
    let swapped = std::slice::from_ref(swapped);
    assert_eq!(compile_all(swapped).unwrap()[0].len(), 2);

    // The swapped plan really renders the swapped golden.
    let _g = globals();
    let serial = Threads {
        jobs: 1,
        sim_threads: 1,
    };
    let pass = run_pass(swapped, serial, Capture::Off, &scratch("swapped")).expect("pass runs");
    let tally = check(swapped, &pass.rendered);
    assert_eq!(
        (tally.attempted, tally.failures.len()),
        (1, 0),
        "{:?}",
        tally.failures
    );
}

#[test]
fn reorder_rows_moves_only_table_rows() {
    let text = "== T ==\nh\n--\nr0\nr1\nnote: n\n";
    assert_eq!(
        reorder_rows(text, &[1, 0]).unwrap(),
        "== T ==\nh\n--\nr1\nr0\nnote: n\n"
    );
    assert!(reorder_rows("== T ==\nh\n--\nr0\n", &[1, 0]).is_none());
}

#[test]
fn the_ledger_reports_every_per_layer_metric() {
    let _g = globals();
    let exps = tiny();
    let cfg = LedgerConfig {
        threads: TWO_JOBS,
        compile_reps: 2,
        probe_ranks: vec![16, 32, 64],
        probe_reps: 1,
        pdes_threads: 2,
        pdes_reps: 1,
        pdes_fabrics: Vec::new(),
        scratch: scratch("ledger"),
    };
    let (metrics, tally) =
        ledger::run(Workload::PaperSweep, &exps, &exps, &cfg).expect("ledger runs");
    assert!(tally.failures.is_empty(), "{:?}", tally.failures);
    // The workload pass, three probe simulations, the serial and the
    // parallel PDES pass, and the captured pass.
    assert_eq!(tally.attempted, 1 + 3 + 2 + 1);

    let mut got: Vec<&str> = metrics.iter().map(|m| m.def.name).collect();
    let mut want: Vec<&str> = METRICS
        .iter()
        .filter(|d| d.kind == Kind::PerLayer)
        .map(|d| d.name)
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
    for m in &metrics {
        assert!(m.value.is_finite(), "{} = {}", m.def.name, m.value);
    }
    let value = |name: &str| metrics.iter().find(|m| m.def.name == name).unwrap().value;
    assert_eq!(value("spec.points"), 1.0);
    assert_eq!(value("sweep.points"), 1.0);
    assert!(value("obs.bundles") >= 1.0);
}
