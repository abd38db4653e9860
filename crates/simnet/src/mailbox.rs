//! In-flight message storage for the engine's eager matching.
//!
//! The engine's hottest operations are `push`/`pop` of arrival times
//! keyed by `(from, to, tag)` — one pair per simulated message. The
//! original implementation hashed that key into a
//! `HashMap<MsgKey, VecDeque<f64>>` (plus a second map for send
//! sequence numbers), paying two SipHash computations per message.
//!
//! [`IndexedMailbox`] replaces the hash with an index and the per-key
//! queues with one slab. All channels live in one table; each sender
//! heads a short chain of its `(to, tag)` channels, scanned linearly.
//! The workloads here are stencil/ring/wavefront codes where a rank
//! talks to a handful of neighbours on a handful of tags, so the scan
//! is a few comparisons — no hashing. Undelivered arrivals live in one
//! slab, linked FIFO per channel, and a delivered slot goes onto a free
//! list for the next send. A run therefore allocates a few growing
//! vectors, not one queue per channel. Channels also fuse the
//! send-sequence counter with the queue, halving the bookkeeping.
//!
//! The original implementation is kept as [`ReferenceMailbox`]
//! (doc-hidden) so `cargo bench --bench faults` can measure the engine
//! end-to-end with both and report the speedup; the engine is generic
//! over [`MailboxOps`], and both implementations are semantically
//! identical (equivalence is tested here and at the engine level).

use std::collections::{HashMap, VecDeque};

/// The mailbox operations the engine needs. `push`/`pop` must be FIFO
/// per `(from, to, tag)` channel (MPI ordering); `next_seq` returns a
/// per-channel counter 0, 1, 2, … identifying each send for
/// schedule-independent fault sampling.
pub trait MailboxOps {
    /// An empty mailbox for `n` ranks.
    fn with_ranks(n: usize) -> Self;
    /// Deposit an arrival time on the channel.
    fn push(&mut self, from: usize, to: usize, tag: u64, arrival: f64);
    /// Take the oldest undelivered arrival on the channel, if any.
    fn pop(&mut self, from: usize, to: usize, tag: u64) -> Option<f64>;
    /// Claim the channel's next send sequence number.
    fn next_seq(&mut self, from: usize, to: usize, tag: u64) -> u64;
}

/// End of a chain: no channel, no slot.
const NIL: u32 = u32::MAX;

/// One sender's channel to a `(to, tag)` destination.
#[derive(Debug)]
struct Channel {
    tag: u64,
    to: u32,
    /// Messages ever sent on this channel.
    next_seq: u64,
    /// The sender's next channel, or [`NIL`].
    next: u32,
    /// Oldest undelivered arrival in the slab, or [`NIL`] when empty.
    head: u32,
    /// Newest undelivered arrival; meaningless when `head` is [`NIL`].
    tail: u32,
}

/// One slab slot: an undelivered arrival linked to the next one on its
/// channel, or a free slot linked to the next free one.
#[derive(Debug, Clone, Copy)]
struct Slot {
    arrival: f64,
    next: u32,
}

/// Hash-free mailbox: one channel table with per-sender chains, and one
/// arrival slab with a free list.
///
/// A channel, once created, stays in the table for the rest of the run —
/// the set of `(to, tag)` pairs a rank uses is small and static in every
/// workload here. Slots are recycled: the slab only grows to the most
/// messages ever in flight at once.
#[derive(Debug)]
pub struct IndexedMailbox {
    /// First channel of each sender's chain, or [`NIL`].
    heads: Vec<u32>,
    channels: Vec<Channel>,
    slots: Vec<Slot>,
    /// First free slot, or [`NIL`].
    free: u32,
}

impl IndexedMailbox {
    /// Index of the channel, or `None` if it was never used (the pop
    /// path must not create channels for messages never sent).
    fn find(&self, from: usize, to: usize, tag: u64) -> Option<usize> {
        let mut i = self.heads[from];
        while i != NIL {
            let c = &self.channels[i as usize];
            if c.to as usize == to && c.tag == tag {
                return Some(i as usize);
            }
            i = c.next;
        }
        None
    }

    /// Index of the channel, created at the head of the sender's chain
    /// on first use.
    fn chan(&mut self, from: usize, to: usize, tag: u64) -> usize {
        if let Some(i) = self.find(from, to, tag) {
            return i;
        }
        let i = self.channels.len();
        self.channels.push(Channel {
            tag,
            to: index(to),
            next_seq: 0,
            next: self.heads[from],
            head: NIL,
            tail: NIL,
        });
        self.heads[from] = index(i);
        i
    }
}

/// A rank or table index in 32 bits (never [`NIL`]).
fn index(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&i| i != NIL)
        .expect("mailbox index fits in u32")
}

impl MailboxOps for IndexedMailbox {
    fn with_ranks(n: usize) -> Self {
        IndexedMailbox {
            heads: vec![NIL; n],
            channels: Vec::new(),
            slots: Vec::new(),
            free: NIL,
        }
    }

    fn push(&mut self, from: usize, to: usize, tag: u64, arrival: f64) {
        let c = self.chan(from, to, tag);
        let slot = Slot { arrival, next: NIL };
        let s = if self.free == NIL {
            self.slots.push(slot);
            index(self.slots.len() - 1)
        } else {
            let s = self.free;
            self.free = self.slots[s as usize].next;
            self.slots[s as usize] = slot;
            s
        };
        let chan = &mut self.channels[c];
        if chan.head == NIL {
            chan.head = s;
        } else {
            self.slots[chan.tail as usize].next = s;
        }
        chan.tail = s;
    }

    fn pop(&mut self, from: usize, to: usize, tag: u64) -> Option<f64> {
        let c = self.find(from, to, tag)?;
        let chan = &mut self.channels[c];
        let s = chan.head;
        if s == NIL {
            return None;
        }
        let slot = self.slots[s as usize];
        chan.head = slot.next;
        self.slots[s as usize].next = self.free;
        self.free = s;
        Some(slot.arrival)
    }

    fn next_seq(&mut self, from: usize, to: usize, tag: u64) -> u64 {
        let i = self.chan(from, to, tag);
        let c = &mut self.channels[i];
        let seq = c.next_seq;
        c.next_seq += 1;
        seq
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MsgKey {
    from: usize,
    to: usize,
    tag: u64,
}

/// The original `HashMap`-keyed mailbox, kept for the before/after
/// engine benchmark (`cargo bench --bench faults`). Semantically
/// identical to [`IndexedMailbox`]; only the lookup mechanism differs.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct ReferenceMailbox {
    queues: HashMap<MsgKey, VecDeque<f64>>,
    send_seq: HashMap<MsgKey, u64>,
}

impl MailboxOps for ReferenceMailbox {
    fn with_ranks(_n: usize) -> Self {
        ReferenceMailbox::default()
    }

    fn push(&mut self, from: usize, to: usize, tag: u64, arrival: f64) {
        self.queues
            .entry(MsgKey { from, to, tag })
            .or_default()
            .push_back(arrival);
    }

    fn pop(&mut self, from: usize, to: usize, tag: u64) -> Option<f64> {
        self.queues.get_mut(&MsgKey { from, to, tag })?.pop_front()
    }

    fn next_seq(&mut self, from: usize, to: usize, tag: u64) -> u64 {
        let seq = self.send_seq.entry(MsgKey { from, to, tag }).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<M: MailboxOps>() -> Vec<(Option<f64>, u64)> {
        let mut m = M::with_ranks(4);
        let mut log = Vec::new();
        // Interleave two channels of the same sender plus a
        // self-channel, checking FIFO order and per-channel sequence
        // isolation.
        log.push((None, m.next_seq(0, 1, 7)));
        m.push(0, 1, 7, 1.0);
        m.push(0, 1, 7, 2.0);
        log.push((None, m.next_seq(0, 1, 7)));
        m.push(0, 2, 7, 3.0);
        log.push((m.pop(0, 1, 7), m.next_seq(0, 2, 7)));
        log.push((m.pop(0, 1, 7), m.next_seq(0, 1, 9)));
        log.push((m.pop(0, 1, 7), 0));
        log.push((m.pop(0, 2, 7), 0));
        log.push((m.pop(3, 3, 1 << 63), 0)); // never-sent channel
        m.push(3, 3, 1 << 63, 0.0);
        log.push((m.pop(3, 3, 1 << 63), 0));
        log
    }

    #[test]
    fn fifo_and_sequence_semantics() {
        let log = exercise::<IndexedMailbox>();
        assert_eq!(log[0], (None, 0));
        assert_eq!(log[1], (None, 1));
        assert_eq!(log[2], (Some(1.0), 0)); // seq spaces are per channel
        assert_eq!(log[3], (Some(2.0), 0));
        assert_eq!(log[4], (None, 0));
        assert_eq!(log[5], (Some(3.0), 0));
        assert_eq!(log[6], (None, 0));
        assert_eq!(log[7], (Some(0.0), 0));
    }

    /// A seeded random walk of `push`/`pop`/`next_seq` over 6 ranks × 6
    /// destinations × 5 tags (up to 30 channels per sender). The walk
    /// alternates push-heavy and pop-heavy stretches, so queues grow
    /// deep, drain, and refill through recycled slots. Returns the log
    /// of every result and the number of pushes.
    fn random_walk<M: MailboxOps>(m: &mut M, seed: u64) -> (Vec<(Option<f64>, u64)>, usize) {
        let mut rng = proptest::TestRng::new(seed);
        let mut log = Vec::new();
        let mut pushes = 0;
        for step in 0..2_000u32 {
            let from = (rng.next_u64() % 6) as usize;
            let to = (rng.next_u64() % 6) as usize;
            let tag = (rng.next_u64() % 5) | ((rng.next_u64() % 2) << 63);
            let push_share = if (step / 100) % 2 == 0 { 6 } else { 2 };
            match rng.next_u64() % 10 {
                k if k < push_share => {
                    pushes += 1;
                    m.push(from, to, tag, rng.next_f64());
                }
                k if k < 9 => log.push((m.pop(from, to, tag), 0)),
                _ => log.push((None, m.next_seq(from, to, tag))),
            }
        }
        (log, pushes)
    }

    #[test]
    fn indexed_matches_reference() {
        assert_eq!(exercise::<IndexedMailbox>(), exercise::<ReferenceMailbox>());
        for seed in 0..64 {
            let mut indexed = IndexedMailbox::with_ranks(6);
            let mut reference = ReferenceMailbox::with_ranks(6);
            let (got, pushes) = random_walk(&mut indexed, seed);
            let (want, _) = random_walk(&mut reference, seed);
            assert_eq!(got, want, "seed {seed}");
            // Delivered slots were handed to later sends.
            assert!(indexed.slots.len() < pushes, "seed {seed}: no slot reuse");
            assert!(indexed
                .heads
                .iter()
                .any(|&h| { h != NIL && indexed.channels[h as usize].next != NIL }));
        }
    }
}
