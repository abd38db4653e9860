//! Chrome trace-event export.
//!
//! Renders recorded simulations in the [Trace Event Format] consumed
//! by Perfetto (`ui.perfetto.dev`) and `chrome://tracing`: each
//! simulation becomes a "process", each rank a named "thread" (track),
//! and every span a complete (`"ph": "X"`) event with microsecond
//! timestamps. Network-side spans (retransmit backoff, multiplex
//! queuing) get their own per-rank tracks so they can overlap CPU
//! activity without confusing the renderer.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use serde_json::Value;

use crate::analysis::{rank_count, CriticalPath};
use crate::host::{HostReport, HostTrack};
use crate::object;
use crate::sink::TraceBundle;
use crate::tracer::Track;

/// Seconds → trace-event microseconds.
fn us(t: f64) -> f64 {
    t * 1e6
}

fn meta(name: &str, pid: usize, tid: usize, arg: impl Into<String>) -> Value {
    object([
        ("ph", Value::String("M".into())),
        ("name", Value::String(name.into())),
        ("pid", Value::Number(pid as f64)),
        ("tid", Value::Number(tid as f64)),
        ("args", object([("name", Value::String(arg.into()))])),
    ])
}

fn complete(name: String, cat: &str, start: f64, dur: f64, pid: usize, tid: usize) -> Value {
    object([
        ("name", Value::String(name)),
        ("cat", Value::String(cat.into())),
        ("ph", Value::String("X".into())),
        ("ts", Value::Number(us(start))),
        ("dur", Value::Number(us(dur))),
        ("pid", Value::Number(pid as f64)),
        ("tid", Value::Number(tid as f64)),
    ])
}

/// One end of a critical-path flow arrow.
fn flow(ph: &str, id: usize, pid: usize, tid: usize, t: f64) -> Value {
    let mut fields = Vec::with_capacity(8);
    fields.push(("ph".to_string(), Value::String(ph.into())));
    if ph == "f" {
        fields.push(("bp".into(), Value::String("e".into())));
    }
    fields.extend([
        ("id".into(), Value::Number(id as f64)),
        ("name".into(), Value::String("critical-path".into())),
        ("cat".into(), Value::String("cp".into())),
        ("pid".into(), Value::Number(pid as f64)),
        ("tid".into(), Value::Number(tid as f64)),
        ("ts".into(), Value::Number(us(t))),
    ]);
    Value::Object(fields)
}

/// Simulation `pid`'s events: its process name, every span, then the
/// names of the tracks that carried a span.
fn sim_events(events: &mut Vec<Value>, pid: usize, bundle: &TraceBundle) {
    let n_ranks = rank_count(bundle);
    events.push(meta("process_name", pid, 0, bundle.label.clone()));
    let mut rank_seen = vec![false; n_ranks];
    let mut net_seen = vec![false; n_ranks];
    for span in &bundle.spans {
        let (cat, tid) = match span.kind.track() {
            Track::Cpu => {
                rank_seen[span.rank] = true;
                ("cpu", span.rank)
            }
            Track::Net => {
                net_seen[span.rank] = true;
                ("net", n_ranks + span.rank)
            }
        };
        let name = span.kind.name().into();
        events.push(complete(name, cat, span.start, span.duration(), pid, tid));
    }
    for (r, seen) in rank_seen.iter().enumerate() {
        if *seen {
            events.push(meta("thread_name", pid, r, format!("rank {r}")));
        }
    }
    for (r, seen) in net_seen.iter().enumerate() {
        if *seen {
            let name = format!("rank {r} (net)");
            events.push(meta("thread_name", pid, n_ranks + r, name));
        }
    }
}

/// The host process `pid`: its name, every span (with its args), then
/// one track name per worker lane and the store track's, if used.
fn host_events(events: &mut Vec<Value>, pid: usize, host: &HostReport) {
    let workers = host.workers();
    // Store track sits after the last worker lane (or at 0 when no
    // worker ever recorded — a store-only capture still renders).
    let store_tid = workers.last().map_or(0, |w| *w as usize + 1);
    events.push(meta("process_name", pid, 0, "host executor (wall clock)"));
    let mut store_seen = false;
    for span in &host.spans {
        let tid = match span.track {
            HostTrack::Worker(w) => w as usize,
            HostTrack::Store => {
                store_seen = true;
                store_tid
            }
        };
        let label = span.label.clone();
        let mut e = complete(label, span.cat, span.start, span.duration(), pid, tid);
        if !span.args.is_empty() {
            let mut args = Value::Object(Vec::with_capacity(span.args.len()));
            for (k, v) in &span.args {
                args.set(k, v.clone());
            }
            e.set("args", args);
        }
        events.push(e);
    }
    for w in &workers {
        events.push(meta("thread_name", pid, *w as usize, format!("worker {w}")));
    }
    if store_seen {
        events.push(meta("thread_name", pid, store_tid, "checkpoint store"));
    }
}

/// The whole export: every simulation's events, then the host
/// process's, then the critical-path flows, in one event list wrapped
/// once (a capture of the full paper runs to over half a million
/// events, so nothing here copies the list).
fn document(bundles: &[TraceBundle], host: Option<&HostReport>, paths: &[CriticalPath]) -> Value {
    let paths = &paths[..paths.len().min(bundles.len())];
    let mut events = Vec::new();
    for (pid, bundle) in bundles.iter().enumerate() {
        sim_events(&mut events, pid, bundle);
    }
    if let Some(host) = host {
        host_events(&mut events, bundles.len(), host);
    }
    let mut id = 0usize;
    for (pid, path) in paths.iter().enumerate() {
        for hop in path.hops.iter().filter(|h| h.src_rank != h.dst_rank) {
            id += 1;
            events.push(flow("s", id, pid, hop.src_rank, hop.src_time));
            events.push(flow("f", id, pid, hop.dst_rank, hop.dst_time));
        }
    }
    object([
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::String("ms".into())),
    ])
}

/// Render `bundles` plus an optional host-telemetry capture as one
/// Chrome trace document.
///
/// Simulated-time tracks are laid out exactly as in [`chrome_trace`].
/// The host capture — when present — becomes one extra process (pid
/// `bundles.len()`, named "host executor (wall clock)"): one thread
/// per worker lane ("worker 0", "worker 1", …) carrying job spans and
/// steal instants, plus a "checkpoint store" thread for store
/// save/load activity. Host timestamps are wall-clock seconds since
/// the capture epoch, so in Perfetto the executor's real occupancy
/// reads side by side with the simulators' virtual timelines.
pub fn chrome_trace_with_host(bundles: &[TraceBundle], host: Option<&HostReport>) -> Value {
    document(bundles, host, &[])
}

/// Render `bundles` plus host telemetry plus critical-path flow
/// events.
///
/// `paths[i]` — when present — is the analyzed critical path of
/// `bundles[i]` (see [`crate::analysis::analyze`]); each cross-rank hop
/// it traversed becomes a Perfetto flow (`"ph": "s"` at the source
/// event, `"ph": "f"` at the arrival, shared id, name
/// `"critical-path"`, category `"cp"`), so the path reads as arrows
/// threading through the rank tracks. Without `paths` (or with an empty
/// slice) the output is byte-identical to [`chrome_trace_with_host`].
pub fn chrome_trace_with_flows(
    bundles: &[TraceBundle],
    host: Option<&HostReport>,
    paths: &[CriticalPath],
) -> Value {
    document(bundles, host, paths)
}

/// Render `bundles` as one Chrome trace document.
///
/// Simulation `i` is process `i` (named by its bundle label); rank `r`
/// is thread `r` of that process, and its network activity — if any —
/// thread `n_ranks + r` (named "rank r (net)"), where `n_ranks` counts
/// every rank the bundle mentions (its profile, placement, spans and
/// edges).
pub fn chrome_trace(bundles: &[TraceBundle]) -> Value {
    document(bundles, None, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::profile::CommProfile;
    use crate::tracer::{SpanEvent, SpanKind};

    fn bundle() -> TraceBundle {
        let spans = vec![
            SpanEvent {
                rank: 0,
                kind: SpanKind::Compute,
                start: 0.0,
                end: 1.0,
            },
            SpanEvent {
                rank: 1,
                kind: SpanKind::RecvWait,
                start: 0.0,
                end: 0.5,
            },
            SpanEvent {
                rank: 0,
                kind: SpanKind::RetransmitBackoff,
                start: 1.0,
                end: 1.5,
            },
        ];
        let profile = CommProfile::from_spans(&spans, 2);
        TraceBundle {
            label: "demo".into(),
            spans,
            edges: vec![],
            rank_nodes: vec![],
            metrics: Metrics::new(),
            profile,
        }
    }

    #[test]
    fn export_is_valid_json_with_per_rank_tracks() {
        let doc = chrome_trace(&[bundle()]);
        let text = serde_json::to_string_pretty(&doc);
        let parsed = serde_json::from_str(&text).unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // One thread_name per CPU rank plus one for the net track.
        let thread_names: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .collect();
        assert_eq!(thread_names.len(), 3);
        // Complete events carry microsecond timestamps.
        let compute = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("compute"))
            .unwrap();
        assert_eq!(compute.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(compute.get("dur").and_then(Value::as_f64), Some(1e6));
        // The net span lands on the offset track.
        let net = events
            .iter()
            .find(|e| e.get("cat").and_then(Value::as_str) == Some("net"))
            .unwrap();
        assert_eq!(net.get("tid").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn host_capture_renders_as_its_own_process_with_worker_tracks() {
        use crate::host::{HostReport, HostSpan, HostTrack};
        let mut report = HostReport::default();
        report.spans.push(HostSpan {
            track: HostTrack::Worker(0),
            label: "job 0".into(),
            cat: "host.job",
            start: 0.0,
            end: 0.25,
            args: vec![("outcome", Value::String("ok".into()))],
        });
        report.spans.push(HostSpan {
            track: HostTrack::Worker(2),
            label: "steal".into(),
            cat: "host.steal",
            start: 0.1,
            end: 0.1,
            args: vec![],
        });
        report.spans.push(HostSpan {
            track: HostTrack::Store,
            label: "save".into(),
            cat: "host.store",
            start: 0.2,
            end: 0.21,
            args: vec![],
        });
        let doc = chrome_trace_with_host(&[bundle()], Some(&report));
        let text = serde_json::to_string(&doc);
        let parsed = serde_json::from_str(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
        // Host process is pid 1 (after the one sim bundle).
        let host_events: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("pid").and_then(Value::as_f64) == Some(1.0))
            .collect();
        assert!(!host_events.is_empty(), "host process present");
        let names: Vec<&str> = host_events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, vec!["worker 0", "worker 2", "checkpoint store"]);
        // The store track lands after the last worker lane (tid 3).
        let save = host_events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("save"))
            .unwrap();
        assert_eq!(save.get("tid").and_then(Value::as_f64), Some(3.0));
        // Job args survive the export.
        let job = host_events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("job 0"))
            .unwrap();
        assert_eq!(
            job.get("args")
                .and_then(|a| a.get("outcome"))
                .and_then(Value::as_str),
            Some("ok")
        );
        // Simulated-time tracks are untouched alongside.
        assert!(events
            .iter()
            .any(|e| e.get("pid").and_then(Value::as_f64) == Some(0.0)
                && e.get("ph").and_then(Value::as_str) == Some("X")));
    }

    #[test]
    fn no_host_capture_is_exactly_the_plain_export() {
        let plain = serde_json::to_string(&chrome_trace(&[bundle()]));
        let merged = serde_json::to_string(&chrome_trace_with_host(&[bundle()], None));
        assert_eq!(plain, merged);
    }

    #[test]
    fn no_paths_is_exactly_the_host_export() {
        let host = serde_json::to_string(&chrome_trace_with_host(&[bundle()], None));
        let flows = serde_json::to_string(&chrome_trace_with_flows(&[bundle()], None, &[]));
        assert_eq!(host, flows);
    }

    #[test]
    fn critical_path_hops_render_as_well_formed_flow_pairs() {
        use crate::analysis::analyze;
        use crate::tracer::{CausalEdge, EdgeKind, RecordingTracer, Tracer};
        use std::collections::BTreeMap;

        // Rank 0 computes then sends; rank 1 waits for the message.
        let mut t = RecordingTracer::new();
        t.topology(&[0, 1]);
        t.span(0, SpanKind::Compute, 0.0, 1.0);
        t.span(0, SpanKind::Send, 1.0, 1.01);
        t.edge(&CausalEdge {
            kind: EdgeKind::Message,
            src_rank: 0,
            src_time: 1.0,
            dst_rank: 1,
            dst_time: 1.2,
            bytes: 8,
            wire_time: 0.2,
            fault_delay: 0.0,
        });
        t.span(1, SpanKind::Compute, 0.0, 0.1);
        t.span(1, SpanKind::RecvWait, 0.1, 1.2);
        t.span(1, SpanKind::Compute, 1.2, 1.5);
        let b = t.into_bundle("flow demo");
        let path = analyze(&b).critical_path;
        assert!(!path.hops.is_empty());

        let doc = chrome_trace_with_flows(&[b], None, std::slice::from_ref(&path));
        let parsed = serde_json::from_str(&serde_json::to_string(&doc)).unwrap();
        let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
        // Group flow events by id: each id appears exactly twice, as an
        // "s"/"f" pair with matching name and category, timestamps
        // inside the path's time range, and tids on the hop's ranks.
        let mut by_id: BTreeMap<u64, Vec<&Value>> = BTreeMap::new();
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
            if ph == "s" || ph == "f" {
                let id = e.get("id").and_then(Value::as_f64).expect("flow id") as u64;
                by_id.entry(id).or_default().push(e);
            }
        }
        assert_eq!(by_id.len(), path.hops.len());
        for (id, pair) in &by_id {
            assert_eq!(pair.len(), 2, "flow id {id} must have an s/f pair");
            assert_eq!(pair[0].get("ph").and_then(Value::as_str), Some("s"));
            assert_eq!(pair[1].get("ph").and_then(Value::as_str), Some("f"));
            assert_eq!(pair[1].get("bp").and_then(Value::as_str), Some("e"));
            for e in pair {
                assert_eq!(e.get("name").and_then(Value::as_str), Some("critical-path"));
                assert_eq!(e.get("cat").and_then(Value::as_str), Some("cp"));
                let ts = e.get("ts").and_then(Value::as_f64).unwrap();
                assert!((0.0..=1.5e6).contains(&ts));
            }
            let s_ts = pair[0].get("ts").and_then(Value::as_f64).unwrap();
            let f_ts = pair[1].get("ts").and_then(Value::as_f64).unwrap();
            assert!(s_ts <= f_ts, "flow start precedes its finish");
        }
        // The one hop's flow binds rank 0's track to rank 1's.
        let pair = by_id.values().next().unwrap();
        assert_eq!(pair[0].get("tid").and_then(Value::as_f64), Some(0.0));
        assert_eq!(pair[1].get("tid").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn a_bundle_without_a_profile_sizes_its_tracks_from_its_spans() {
        let b = TraceBundle {
            profile: CommProfile::default(),
            ..bundle()
        };
        let doc = chrome_trace(&[b]);
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let net = events
            .iter()
            .find(|e| e.get("cat").and_then(Value::as_str) == Some("net"))
            .unwrap();
        assert_eq!(net.get("tid").and_then(Value::as_f64), Some(2.0));
        // Placement and edges count too: four placed ranks move the net
        // tracks to tid 4 onwards.
        let placed = TraceBundle {
            profile: CommProfile::default(),
            rank_nodes: vec![0, 0, 1, 1],
            ..bundle()
        };
        let doc = chrome_trace(&[placed]);
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let net = events
            .iter()
            .find(|e| e.get("cat").and_then(Value::as_str) == Some("net"))
            .unwrap();
        assert_eq!(net.get("tid").and_then(Value::as_f64), Some(4.0));
    }

    #[test]
    fn empty_export_still_parses() {
        let doc = chrome_trace(&[]);
        let parsed = serde_json::from_str(&serde_json::to_string(&doc)).unwrap();
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(0)
        );
    }
}
