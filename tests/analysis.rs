//! Integration tests for the simulated-time performance analyzer
//! (`columbia_obs::analysis`) over real experiment captures, plus the
//! golden pins of the Chrome trace export.
//!
//! The chrome-trace goldens live at `tests/golden/chrome_host.txt` and
//! `tests/golden/chrome_flows.txt`; regenerate them with
//! `UPDATE_GOLDEN=1 cargo test --test analysis` (which fails the run,
//! forcing a clean confirmation pass — same workflow as
//! `golden_values`).

use std::path::PathBuf;
use std::sync::Mutex;

use columbia::experiments::{run_with_jobs, Experiment};
use columbia::obs::host::{HostReport, HostSpan, HostTrack};
use columbia::obs::{
    analyze, chrome_trace_with_flows, chrome_trace_with_host, sink, Analysis, CausalEdge,
    CommProfile, CriticalPath, EdgeKind, Metrics, SpanEvent, SpanKind, TraceBundle,
};
use columbia::sweep::{PointOutput, ResilienceOptions, SweepPlan};
use serde_json::Value;

/// The trace sink is process-global; tests that install it serialize
/// here (the test harness runs threads in parallel).
static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Capture every simulation `exp` runs at the given parallelism.
fn capture(exp: Experiment, jobs: usize) -> Vec<TraceBundle> {
    sink::install();
    let _ = run_with_jobs(exp, jobs);
    sink::take()
}

#[test]
fn analysis_of_a_real_experiment_is_jobs_independent() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let exp = Experiment::parse("table4").expect("table4 exists");
    let serial = capture(exp, 1);
    let parallel = capture(exp, 4);
    assert!(!serial.is_empty(), "table4 records simulations");
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.label, b.label, "canonical drain order");
        let va = serde_json::to_string(&analyze(a).to_value());
        let vb = serde_json::to_string(&analyze(b).to_value());
        assert_eq!(va, vb, "analysis of {} is schedule-independent", a.label);
    }
}

#[test]
fn critical_path_accounts_for_every_captured_makespan() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let exp = Experiment::parse("table4").expect("table4 exists");
    for bundle in capture(exp, 2) {
        let a: Analysis = analyze(&bundle);
        let cp = &a.critical_path;
        assert!(!cp.truncated, "{}: walk terminated", bundle.label);
        assert!(cp.makespan > 0.0, "{}: sim did work", bundle.label);
        // The walk attributes exactly the time it traverses, so the
        // category totals reconstruct the makespan to rounding dust.
        assert!(
            (cp.total - cp.makespan).abs() <= 1e-9 * cp.makespan.max(1.0),
            "{}: critical path {} vs makespan {}",
            bundle.label,
            cp.total,
            cp.makespan
        );
        assert!(!cp.segments.is_empty());
        // Per-rank and per-node attributions are partitions of the
        // same path.
        let by_rank: f64 = cp.by_rank.values().map(|b| b.total()).sum();
        assert!((by_rank - cp.total).abs() <= 1e-9 * cp.total.max(1.0));
        if !bundle.rank_nodes.is_empty() {
            let by_node: f64 = cp.by_node.values().map(|b| b.total()).sum();
            assert!((by_node - cp.total).abs() <= 1e-9 * cp.total.max(1.0));
        }
        // Segments are forward-ordered and non-overlapping.
        for w in cp.segments.windows(2) {
            assert!(w[0].end <= w[1].start + 1e-12, "{}", bundle.label);
        }
        // Busy time can never exceed the area the imbalance stats
        // normalize by.
        assert!(a.imbalance.max_busy <= cp.makespan * (1.0 + 1e-9));
        assert!((0.0..=1.0).contains(&a.imbalance.idle_fraction));
    }
}

/// The sweep-resilience summary bundle reports its point-latency
/// distribution as p50/p95/p99 gauges derived from
/// `Histogram::percentile`, not just raw decade buckets.
#[test]
fn sweep_resilience_summary_carries_latency_percentile_gauges() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    sink::install();
    let mut plan = SweepPlan::new("percentiles", "resilience summary", &["x"]);
    for i in 0..8u64 {
        plan.point_ok(move || {
            // Spread of real (tiny) wall-clock work so the histogram
            // has a distribution to summarize.
            std::thread::sleep(std::time::Duration::from_micros(50 * (i + 1)));
            PointOutput::default()
        });
    }
    let outcome = plan.run_resilient_with_jobs(2, ResilienceOptions::default());
    assert_eq!(outcome.stats.failed, 0);
    let bundles = sink::take();
    let summary = bundles
        .iter()
        .find(|b| b.label.contains("sweep resilience:"))
        .expect("resilience summary bundle");
    let hist = summary
        .metrics
        .histogram("sweep.point_seconds")
        .expect("latency histogram");
    assert_eq!(hist.count(), 8);
    let p50 = summary
        .metrics
        .gauge_value("sweep.point_seconds_p50")
        .expect("p50 gauge");
    let p95 = summary
        .metrics
        .gauge_value("sweep.point_seconds_p95")
        .expect("p95 gauge");
    let p99 = summary
        .metrics
        .gauge_value("sweep.point_seconds_p99")
        .expect("p99 gauge");
    assert!(p50 > 0.0);
    assert!(p50 <= p95 && p95 <= p99, "percentiles are monotone");
    assert_eq!(
        p50,
        hist.percentile(50.0),
        "gauges derive from the histogram"
    );
    assert_eq!(p95, hist.percentile(95.0));
    assert_eq!(p99, hist.percentile(99.0));
}

// ---- chrome trace golden ----

/// A small fixed simulation bundle: two ranks, one wait, one net span.
fn sim_bundle() -> TraceBundle {
    let spans = vec![
        SpanEvent {
            rank: 0,
            kind: SpanKind::Compute,
            start: 0.0,
            end: 1.0,
        },
        SpanEvent {
            rank: 0,
            kind: SpanKind::Send,
            start: 1.0,
            end: 1.25,
        },
        SpanEvent {
            rank: 1,
            kind: SpanKind::RecvWait,
            start: 0.0,
            end: 1.5,
        },
        SpanEvent {
            rank: 1,
            kind: SpanKind::RetransmitBackoff,
            start: 0.5,
            end: 0.75,
        },
    ];
    let profile = CommProfile::from_spans(&spans, 2);
    TraceBundle {
        label: "golden sim".into(),
        spans,
        edges: vec![],
        rank_nodes: vec![0, 1],
        metrics: Metrics::new(),
        profile,
    }
}

/// A small fixed host capture: one worker lane plus store activity.
fn host_report() -> HostReport {
    let mut r = HostReport::default();
    r.spans.push(HostSpan {
        track: HostTrack::Worker(0),
        label: "job 0".into(),
        cat: "host.job",
        start: 0.0,
        end: 0.5,
        args: vec![("outcome", Value::String("ok".into()))],
    });
    r.spans.push(HostSpan {
        track: HostTrack::Store,
        label: "save".into(),
        cat: "host.store",
        start: 0.5,
        end: 0.6,
        args: vec![],
    });
    r
}

/// Compare `actual` with `tests/golden/<file>`, or rewrite the file
/// (and fail, forcing a clean confirmation pass) under `UPDATE_GOLDEN`.
fn check_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        panic!(
            "UPDATE_GOLDEN: rewrote {}; review `git diff tests/golden/` \
             then re-run without UPDATE_GOLDEN to confirm",
            path.display()
        );
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             Generate it with `UPDATE_GOLDEN=1 cargo test --test analysis`",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "chrome trace drifted from tests/golden/{file} \
         (regenerate deliberately with UPDATE_GOLDEN=1)"
    );
}

/// Golden pin of the merged (simulated-time + host wall-clock) Chrome
/// trace: the exact serialized JSON is deliberate-update-only, because
/// downstream tooling (Perfetto configs, trace diff scripts) keys on
/// event names, track layout, and field order.
#[test]
fn merged_chrome_trace_matches_golden() {
    let doc = chrome_trace_with_host(&[sim_bundle()], Some(&host_report()));
    check_golden(
        "chrome_host.txt",
        &format!("{}\n", serde_json::to_string_pretty(&doc)),
    );
}

fn span(rank: usize, kind: SpanKind, start: f64, end: f64) -> SpanEvent {
    SpanEvent {
        rank,
        kind,
        start,
        end,
    }
}

fn hop(kind: EdgeKind, src: (usize, f64), dst: (usize, f64)) -> CausalEdge {
    CausalEdge {
        kind,
        src_rank: src.0,
        src_time: src.1,
        dst_rank: dst.0,
        dst_time: dst.1,
        bytes: 64,
        wire_time: dst.1 - src.1,
        fault_delay: 0.0,
    }
}

/// Two hand-built simulations with CPU and net tracks, one with a label
/// that needs escaping and timestamps whose microsecond forms are not
/// integers.
fn flow_bundles() -> Vec<TraceBundle> {
    let make = |label: &str, n: usize, spans: Vec<SpanEvent>| TraceBundle {
        label: label.into(),
        profile: CommProfile::from_spans(&spans, n),
        spans,
        edges: vec![],
        rank_nodes: (0..n as u32).collect(),
        metrics: Metrics::new(),
    };
    vec![
        make(
            "flows \"A\" \\ 3 ranks",
            3,
            vec![
                span(0, SpanKind::Compute, 0.0, 0.1 + 0.2),
                span(0, SpanKind::Send, 0.1 + 0.2, 0.4),
                span(0, SpanKind::MultiplexQueue, 0.3, 0.35),
                span(1, SpanKind::RecvWait, 0.0, 0.5),
                span(1, SpanKind::Compute, 0.5, 1.0 / 3.0 + 0.5),
                span(2, SpanKind::Collective, 1.5e-7, 0.9),
                span(2, SpanKind::RetransmitBackoff, 0.6, 0.625),
            ],
        ),
        make(
            "second sim",
            2,
            vec![
                span(0, SpanKind::Compute, 0.0, 2.0),
                span(1, SpanKind::Compute, 0.0, 1.0),
                span(1, SpanKind::RecvWait, 1.0, 2.5),
                span(1, SpanKind::MultiplexQueue, 2.0, 2.5),
            ],
        ),
    ]
}

/// Critical paths for [`flow_bundles`]: cross-rank message and
/// collective hops, plus a same-rank hop that draws no arrow.
fn flow_paths() -> Vec<CriticalPath> {
    let path = |hops| CriticalPath {
        hops,
        ..CriticalPath::default()
    };
    vec![
        path(vec![
            hop(EdgeKind::Message, (0, 0.1 + 0.2), (1, 0.5)),
            hop(EdgeKind::Message, (1, 0.5), (1, 0.6)),
            hop(EdgeKind::Collective, (1, 1.0 / 3.0 + 0.5), (2, 0.9)),
        ]),
        path(vec![hop(EdgeKind::Message, (0, 2.0), (1, 2.5))]),
    ]
}

/// A host capture whose spans carry string and numeric args.
fn flow_host_report() -> HostReport {
    let mut r = host_report();
    r.spans[0].args.push(("attempts", Value::Number(2.0)));
    r.spans[1].args = vec![
        ("bytes", Value::Number(4096.0)),
        ("outcome", Value::String("written".into())),
    ];
    r.spans.push(HostSpan {
        track: HostTrack::Worker(1),
        label: "steal \u{e9}".into(),
        cat: "host.steal",
        start: 0.25,
        end: 0.25,
        args: vec![("victim", Value::Number(0.0))],
    });
    r
}

/// Golden pin of the compact export with critical-path flows, the form
/// `repro --trace --analyze` writes.
#[test]
fn chrome_trace_with_flows_matches_golden() {
    let doc = chrome_trace_with_flows(&flow_bundles(), Some(&flow_host_report()), &flow_paths());
    check_golden(
        "chrome_flows.txt",
        &format!("{}\n", serde_json::to_string(&doc)),
    );
}
