//! The ledger's one tracer: it stamps the wall clock when the engine
//! reports the run's placement, and records nothing else.
//!
//! The engine calls [`Tracer::topology`] exactly once per simulation,
//! before its first event, and only for an enabled tracer. The tracer
//! reports itself enabled until it has its stamp and disabled from then
//! on. The serial engine asks [`Tracer::enabled`] before building each
//! trace record, so after the stamp it runs the untraced event loop:
//! no span, message or edge is built, buffered or replayed. For one
//! `execute_traced` call at `sim_threads` 1, *call → stamp* is workload
//! lowering plus fabric construction, and *stamp → return* is the
//! engine as an untraced run executes it.
//!
//! Use a fresh tracer per simulation: a stamped tracer stays disabled.

use std::time::Instant;

use columbia::obs::{CausalEdge, MessageRecord, SpanKind, Tracer};

/// Records when (and how often) the engine announced a topology.
#[derive(Debug, Default)]
pub struct StampTracer {
    /// Number of `topology` calls seen.
    pub stamps: u32,
    /// Wall clock at the first `topology` call.
    pub at: Option<Instant>,
    /// Spans, messages and edges delivered to this tracer.
    pub events: u64,
}

impl Tracer for StampTracer {
    #[inline]
    fn enabled(&self) -> bool {
        self.at.is_none()
    }

    fn span(&mut self, _: usize, _: SpanKind, _: f64, _: f64) {
        self.events += 1;
    }

    fn message(&mut self, _: &MessageRecord) {
        self.events += 1;
    }

    fn edge(&mut self, _: &CausalEdge) {
        self.events += 1;
    }

    fn topology(&mut self, _rank_nodes: &[u32]) {
        self.stamps += 1;
        self.at.get_or_insert_with(Instant::now);
    }
}
