//! Conservatively synchronized partitioned event engine (parallel DES).
//!
//! The global [`crate::Engine`] drives one timer wheel; a single large
//! run therefore uses one core no matter how many the host has. This
//! module splits a simulation into **partitions** (one per node, or per
//! node group), each owning a private [`EventQueue`] wheel, and runs them
//! in **conservative lookahead windows** (null-message / YAWNS style):
//!
//! 1. *GVT*: the orchestrator takes the minimum pending event time across
//!    all partitions — the global virtual time floor.
//! 2. *Window*: every partition whose next event falls in
//!    `[gvt, gvt + lookahead)` independently drains its wheel up to the
//!    window end. `lookahead` is the minimum cross-partition latency
//!    (for a cluster: the LogGP wire latency floor — see
//!    `netsim`'s lookahead extraction), so nothing a remote partition
//!    does in this window can affect a local event inside it.
//! 3. *Merge*: cross-partition messages collected during the window are
//!    delivered into destination queues **serially, in source-partition
//!    index order** (the "inbox merge"). Sequence numbers in every
//!    destination wheel are therefore assigned identically at any worker
//!    count, which preserves the `(time, seq)` FIFO pop contract —
//!    thread count is a throughput knob, never a semantics knob.
//!
//! Determinism argument, in full: within a window, partitions share no
//! state (handlers see only their own world and queue — the type system
//! enforces it); each partition's event order is fixed by its own wheel's
//! `(time, seq)` contract; and everything that crosses partitions funnels
//! through the index-ordered merge. Per-partition randomness must come
//! from [`crate::StreamRng::partition`] streams so draws depend only on
//! the partition's own event sequence.
//!
//! The trade against the global engine: events at the *same* instant in
//! *different* partitions no longer interleave by global sequence number
//! — they execute concurrently. Because partitions are share-nothing,
//! the per-partition `(time, seq)` traces (what tests compare) are
//! unaffected; `tests/proptest_partitioned.rs` proves the equivalence
//! against a single global wheel across generated topologies.
//!
//! **Cost-gated drain** (`DESIGN.md` D12): the calling thread is worker 0
//! of `w` and drains each window itself unless host time measured for
//! that window size says handing it to the `w - 1` helpers is cheaper.
//! Timing only picks the thread that drains a partition, never its output.

use crate::{par, Cycles, EventKey, EventQueue, RunOutcome, World};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::ScopedJoinHandle;
use std::time::Instant;

/// A partition's simulation state machine.
///
/// Like [`World`], but handlers communicate with other partitions through
/// [`PartIo::send`] instead of scheduling into a shared queue. A
/// cross-partition send must arrive at least one lookahead after the
/// window it was issued in — [`PartIo::send`] asserts it.
pub trait PartWorld {
    /// Event payload dispatched within (and between) partitions.
    type Event: Eq + Send;

    /// React to `ev` occurring at `now` in this partition.
    fn handle(&mut self, now: Cycles, ev: Self::Event, io: &mut PartIo<'_, Self::Event>);
}

/// Handler-side interface of one partition: local scheduling plus the
/// cross-partition outbox.
pub struct PartIo<'a, E> {
    queue: &'a mut EventQueue<E>,
    outbox: &'a mut Vec<(usize, Cycles, E)>,
    part: usize,
    nparts: usize,
    window_end: Cycles,
}

impl<E> PartIo<'_, E> {
    /// Schedule a local event at absolute time `at` (no lookahead floor —
    /// a partition may schedule itself arbitrarily close).
    pub fn schedule(&mut self, at: Cycles, ev: E) -> EventKey {
        self.queue.schedule(at, ev)
    }

    /// Schedule a local event `delay` after `now`.
    pub fn schedule_after(&mut self, now: Cycles, delay: Cycles, ev: E) -> EventKey {
        self.queue.schedule_after(now, delay, ev)
    }

    /// Send `ev` to partition `dst`, arriving at absolute time `at`.
    ///
    /// Conservative-synchronization contract: `at` must lie at or beyond
    /// the current window's end, which holds whenever the model's
    /// delivery delay is at least the engine's lookahead. A violation is
    /// a lookahead-extraction bug (the window was too wide), not a
    /// recoverable condition — it panics in all build profiles.
    /// A self-send (`dst == part`) is a plain local schedule and carries
    /// no floor.
    pub fn send(&mut self, dst: usize, at: Cycles, ev: E) {
        assert!(dst < self.nparts, "send to unknown partition {dst}");
        if dst == self.part {
            self.queue.schedule(at, ev);
            return;
        }
        assert!(
            at >= self.window_end,
            "cross-partition send violates lookahead: arrival {at:?} before \
             window end {:?} (partition {} -> {dst})",
            self.window_end,
            self.part
        );
        self.outbox.push((dst, at, ev));
    }

    /// This partition's index.
    pub fn part(&self) -> usize {
        self.part
    }

    /// Number of partitions in the engine.
    pub fn num_partitions(&self) -> usize {
        self.nparts
    }
}

/// Adapter: run any share-nothing [`World`] as one partition. `handle`
/// sees the local wheel exactly as under the global engine, so a
/// single-partition [`PartitionedEngine`] reproduces [`crate::Engine`]'s
/// event order event-for-event (there are no cross-sends and one queue).
pub struct SoloWorld<W: World>(pub W);

impl<W: World> PartWorld for SoloWorld<W>
where
    W::Event: Send,
{
    type Event = W::Event;

    fn handle(&mut self, now: Cycles, ev: Self::Event, io: &mut PartIo<'_, Self::Event>) {
        self.0.handle(now, ev, io.queue);
    }
}

/// One partition: its world, private wheel and cross-partition outbox,
/// plus the events handled in its last window, not yet credited.
struct Part<W: PartWorld> {
    world: W,
    queue: EventQueue<W::Event>,
    outbox: Vec<(usize, Cycles, W::Event)>,
    drained: u64,
}

type Slot<W> = Mutex<Part<W>>;
type Heap = BinaryHeap<Reverse<(u64, usize)>>;

/// Which thread drains a window. The engine always uses [`Drain::Auto`];
/// tests force the others to prove both paths give identical output.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drain {
    /// The cost gate decides.
    Auto,
    /// Every window on the coordinator.
    Inline,
    /// Every window handed to the helpers, however small.
    FanOut,
}

static FORCED: Mutex<Drain> = Mutex::new(Drain::Auto);
static FORCING: Mutex<()> = Mutex::new(());

/// Test hook: run `f` with every engine in the process draining under
/// `policy`, then return to [`Drain::Auto`]. Calls are serialized.
#[doc(hidden)]
pub fn with_drain<T>(policy: Drain, f: impl FnOnce() -> T) -> T {
    let _serial = FORCING.lock().unwrap_or_else(PoisonError::into_inner);
    *FORCED.lock().unwrap_or_else(PoisonError::into_inner) = policy;
    let out = f();
    *FORCED.lock().unwrap_or_else(PoisonError::into_inner) = Drain::Auto;
    out
}

/// Spin once; false once a waiting thread should park or yield instead.
fn spin(spins: &mut u32) -> bool {
    *spins += 1;
    spin_loop();
    *spins <= 1 << 12
}

/// Window-size classes: class `c` holds `2^(c-1) + 1 ..= 2^c` partitions.
const CLASSES: usize = 16;

fn size_class(n: usize) -> usize {
    ((usize::BITS - (n - 1).leading_zeros()) as usize).min(CLASSES - 1)
}

/// The cost gate: per window-size class, running host ns per active
/// partition `[inline, fanned out]` (0 = unmeasured). One replay spans
/// ~1 µs in two-partition windows to tens of µs in compute windows.
#[derive(Default)]
struct Gate([[f64; 2]; CLASSES]);

impl Gate {
    /// A class drains its first timed window inline and fans its next
    /// one out; after that, the cheaper path wins.
    fn fan_out(&self, class: usize) -> bool {
        self.0[class][1] < self.0[class][0]
    }

    /// Fold in a window of `n` partitions that took `ns`. The path not
    /// taken decays, so one slow sample cannot lock the gate onto a path.
    fn record(&mut self, class: usize, n: usize, fanned: bool, ns: f64) {
        let (sample, cost) = (ns / n as f64, &mut self.0[class]);
        let taken = &mut cost[usize::from(fanned)];
        let weight = if *taken == 0.0 { 1.0 } else { 1.0 / 32.0 };
        *taken += (sample - *taken) * weight;
        cost[usize::from(!fanned)] *= 1.0 - 1.0 / 1024.0;
    }
}

/// Hand-off to the helpers, built once per run. The window (active
/// partitions, end, budget) reuses its buffer: publishing never allocates.
#[derive(Default)]
struct Crew {
    window: Mutex<(Vec<usize>, Cycles, u64)>,
    /// Unclaimed window indices `[lo, hi)`, stored with Release.
    cursor: AtomicU64,
    /// Undrained window partitions: Release decrements, Acquire waits.
    pending: AtomicUsize,
    /// Bumped per published window; idle helpers watch it.
    epoch: AtomicU64,
    done: AtomicBool,
}

impl Crew {
    /// Claim and drain partitions until the window runs dry. The window is
    /// written before the cursor's release store and rewritten only once
    /// `pending` is zero, so even a late claim reads its own window.
    fn drain_claimed<W: PartWorld>(&self, parts: &[Slot<W>]) {
        while let Some(i) = par::claim_front(&self.cursor) {
            let (part, end, budget) = {
                let w = self.window.lock().expect("window lock poisoned");
                (w.0[i], w.1, w.2)
            };
            drain(parts, part, end, budget);
            self.pending.fetch_sub(1, Ordering::Release);
        }
    }

    /// Helper thread body: wait for each new epoch (spin, then park).
    fn serve<W: PartWorld>(&self, parts: &[Slot<W>]) {
        let (mut seen, mut spins) = (0, 0);
        while !self.done.load(Ordering::Acquire) {
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch != seen {
                (seen, spins) = (epoch, 0);
                self.drain_claimed(parts);
            } else if !spin(&mut spins) {
                std::thread::park();
            }
        }
    }
}

/// The coordinator's side; dismisses the helpers however the loop ends.
struct Lead<'a, 's>(&'a Crew, Vec<ScopedJoinHandle<'s, ()>>);

impl Lead<'_, '_> {
    /// Publish a window, drain a share of it, and wait for the rest.
    fn fan_out<W: PartWorld>(&self, parts: &[Slot<W>], active: &[usize], end: Cycles, budget: u64) {
        let (crew, n) = (self.0, active.len());
        {
            let mut w = crew.window.lock().expect("window lock poisoned");
            w.0.clear();
            w.0.extend_from_slice(active);
            (w.1, w.2) = (end, budget);
        }
        crew.pending.store(n, Ordering::Relaxed);
        crew.cursor.store(par::pack(0, n as u32), Ordering::Release);
        crew.epoch.fetch_add(1, Ordering::Release);
        self.1.iter().for_each(|h| h.thread().unpark());
        crew.drain_claimed(parts);
        let mut spins = 0;
        while crew.pending.load(Ordering::Acquire) != 0 {
            // A helper exits early only if a handler panicked on it.
            assert!(
                !self.1.iter().any(|h| h.is_finished()),
                "partition helper panicked"
            );
            if !spin(&mut spins) {
                std::thread::yield_now();
            }
        }
    }
}

impl Drop for Lead<'_, '_> {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::Release);
        self.1.iter().for_each(|h| h.thread().unpark());
    }
}

/// The partitioned engine: per-partition wheels + windowed execution.
pub struct PartitionedEngine<W: PartWorld> {
    parts: Vec<Slot<W>>,
    lookahead: Cycles,
    events_processed: u64,
}

impl<W: PartWorld> PartitionedEngine<W> {
    /// One partition per world, synchronized with `lookahead` windows.
    /// `lookahead` must be positive: a zero window could never contain an
    /// event and the engine would spin.
    pub fn new(worlds: Vec<W>, lookahead: Cycles) -> Self {
        assert!(lookahead >= Cycles(1), "lookahead must be positive");
        let part = |world| {
            let (queue, outbox) = (EventQueue::new(), Vec::new());
            Mutex::new(Part {
                world,
                queue,
                outbox,
                drained: 0,
            })
        };
        let parts = worlds.into_iter().map(part).collect();
        PartitionedEngine {
            parts,
            lookahead,
            events_processed: 0,
        }
    }

    /// Total events handled across all partitions.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn part(&mut self, part: usize) -> &mut Part<W> {
        self.parts[part].get_mut().expect("partition lock poisoned")
    }

    /// Seed partition `part`'s wheel (setup, before `run`).
    pub fn queue_mut(&mut self, part: usize) -> &mut EventQueue<W::Event> {
        &mut self.part(part).queue
    }

    /// Mutable access to partition `part`'s world.
    pub fn world_mut(&mut self, part: usize) -> &mut W {
        &mut self.part(part).world
    }

    /// Consume the engine, returning every partition's world in index
    /// order (result extraction).
    pub fn into_worlds(self) -> Vec<W> {
        self.parts
            .into_iter()
            .map(|m| m.into_inner().expect("partition lock poisoned").world)
            .collect()
    }

    /// Run windows until every wheel drains, `horizon` is passed, or the
    /// event budget is exhausted. `threads` is the engine width (caller
    /// plus `threads - 1` helpers); results are identical for every value.
    /// The budget is enforced per window (a window may complete past the
    /// cap before the check), so the outcome is width-independent too.
    pub fn run(&mut self, horizon: Cycles, max_events: u64, threads: usize) -> RunOutcome
    where
        W: Send,
    {
        let (nparts, parts) = (self.parts.len(), &self.parts);
        let (la, limit) = (self.lookahead.raw(), horizon.raw().saturating_add(1));
        let workers = threads.clamp(1, nparts.max(1));
        let policy = *FORCED.lock().unwrap_or_else(PoisonError::into_inner);
        let (crew, mut gate) = (Crew::default(), Gate::default());
        let mut processed = self.events_processed;
        // Build the next-event cache + heap by merging every partition.
        // `next[p]` is authoritative; stale heap entries are skipped lazily.
        let (mut next, mut heap) = (vec![None; nparts], Heap::new());
        let mut active: Vec<usize> = (0..nparts).collect();
        merge(parts, &active, &mut next, &mut heap, &mut processed);

        let outcome = std::thread::scope(|s| {
            let helpers = (1..workers)
                .map(|_| s.spawn(|| crew.serve(parts)))
                .collect();
            let lead = Lead(&crew, helpers);
            loop {
                let Some(gvt) = peek_gvt(&mut heap, &next) else {
                    break RunOutcome::Drained;
                };
                if gvt > horizon.raw() {
                    break RunOutcome::HorizonReached;
                }
                if processed >= max_events {
                    break RunOutcome::BudgetExhausted;
                }
                let end = Cycles(gvt.saturating_add(la).min(limit));
                collect_active(&mut heap, &mut next, end.raw(), &mut active);
                let budget = max_events - processed;
                // Only a window that could fan out is timed.
                let n = active.len();
                let class = (workers > 1 && n > 1).then(|| size_class(n));
                let fan_out = match policy {
                    Drain::Auto => class.is_some_and(|c| gate.fan_out(c)),
                    forced => forced == Drain::FanOut,
                };
                let start = class.map(|_| Instant::now());
                if fan_out {
                    lead.fan_out(parts, &active, end, budget);
                } else {
                    for &part in &active {
                        drain(parts, part, end, budget);
                    }
                }
                if let (Some(c), Some(start)) = (class, start) {
                    gate.record(c, n, fan_out, start.elapsed().as_nanos() as f64);
                }
                active.sort_unstable();
                merge(parts, &active, &mut next, &mut heap, &mut processed);
            }
        });
        self.events_processed = processed;
        outcome
    }

    /// [`PartitionedEngine::run`] with no horizon and no budget.
    pub fn run_to_completion(&mut self, threads: usize) -> RunOutcome
    where
        W: Send,
    {
        self.run(Cycles::MAX, u64::MAX, threads)
    }
}

/// Global virtual time: the minimum authoritative next-event time.
/// Stale heap entries (disagreeing with `next`) are popped on the way.
fn peek_gvt(heap: &mut Heap, next: &[Option<u64>]) -> Option<u64> {
    loop {
        let &Reverse((t, p)) = heap.peek()?;
        if next[p] == Some(t) {
            return Some(t);
        }
        heap.pop();
    }
}

/// Pop every partition with work strictly before `end` into `active`
/// (deterministic `(time, partition)` pop order). Claimed partitions
/// get `next = None` until the merge restores it, which also dedupes
/// multiple heap entries for one partition.
fn collect_active(heap: &mut Heap, next: &mut [Option<u64>], end: u64, active: &mut Vec<usize>) {
    active.clear();
    while let Some(&Reverse((t, p))) = heap.peek() {
        if t >= end {
            break;
        }
        heap.pop();
        if next[p] == Some(t) {
            next[p] = None;
            active.push(p);
        }
    }
}

/// Drain up to `budget` of `part`'s events before `end` (half-open: an
/// arrival at the boundary runs next window); the merge takes the rest.
fn drain<W: PartWorld>(parts: &[Slot<W>], part: usize, end: Cycles, budget: u64) {
    let mut slot = parts[part].lock().expect("partition lock poisoned");
    let p = &mut *slot;
    while p.drained < budget && p.queue.peek_time().is_some_and(|t| t < end) {
        let (now, ev) = p.queue.pop().expect("peeked event vanished");
        let mut io = PartIo {
            queue: &mut p.queue,
            outbox: &mut p.outbox,
            part,
            nparts: parts.len(),
            window_end: end,
        };
        p.world.handle(now, ev, &mut io);
        p.drained += 1;
    }
}

/// The inbox merge: credit and deliver the window's partitions in index
/// order (`active` is sorted). Destination queues assign sequence numbers
/// during this serial pass, so the assignment is identical at any width.
fn merge<W: PartWorld>(
    parts: &[Slot<W>],
    active: &[usize],
    next: &mut [Option<u64>],
    heap: &mut Heap,
    processed: &mut u64,
) {
    for &part in active {
        let mut src = parts[part].lock().expect("partition lock poisoned");
        *processed += std::mem::take(&mut src.drained);
        // The wheel already holds what earlier sources sent it in this
        // pass, so its next event time is authoritative.
        next[part] = src.queue.peek_time().map(Cycles::raw);
        if let Some(t) = next[part] {
            heap.push(Reverse((t, part)));
        }
        for (dst, at, ev) in src.outbox.drain(..) {
            let mut dst_part = parts[dst].lock().expect("partition lock poisoned");
            dst_part.queue.schedule(at, ev);
            let t = at.raw();
            if next[dst].is_none_or(|cur| t < cur) {
                next[dst] = Some(t);
                heap.push(Reverse((t, dst)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use std::sync::{Arc, Condvar};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Partitions pass a token around a ring, recording every arrival.
    struct RingNode {
        hops_left: u32,
        delay: Cycles,
        trace: Vec<(Cycles, u32)>,
    }

    impl PartWorld for RingNode {
        type Event = u32;
        fn handle(&mut self, now: Cycles, ev: u32, io: &mut PartIo<'_, u32>) {
            self.trace.push((now, ev));
            if self.hops_left > 0 {
                self.hops_left -= 1;
                let dst = (io.part() + 1) % io.num_partitions();
                io.send(dst, now + self.delay, ev + 1);
            }
        }
    }

    fn ring_traces(nparts: usize, threads: usize) -> Vec<Vec<(Cycles, u32)>> {
        let worlds: Vec<RingNode> = (0..nparts)
            .map(|_| RingNode {
                hops_left: 40,
                delay: Cycles(100),
                trace: Vec::new(),
            })
            .collect();
        let mut eng = PartitionedEngine::new(worlds, Cycles(100));
        eng.queue_mut(0).schedule(Cycles(5), 0);
        assert_eq!(eng.run_to_completion(threads), RunOutcome::Drained);
        eng.into_worlds().into_iter().map(|w| w.trace).collect()
    }

    const DRAINS: [Drain; 3] = [Drain::Auto, Drain::Inline, Drain::FanOut];

    #[test]
    fn ring_trace_identical_at_any_thread_count() {
        let serial = ring_traces(8, 1);
        assert!(serial.iter().any(|t| !t.is_empty()));
        for drain in DRAINS {
            for threads in [1, 2, 3, 4, 8] {
                let got = with_drain(drain, || ring_traces(8, threads));
                assert_eq!(serial, got, "{threads} threads, {drain:?}");
            }
        }
    }

    /// Partitions with one event each in the same window. A handler
    /// counts itself in, then waits until `quorum` handlers are running
    /// at once (or a generous timeout passes), and notes its thread and
    /// whether the quorum met.
    struct Rendezvous {
        quorum: usize,
        arrived: Arc<(Mutex<usize>, Condvar)>,
        drained_on: Option<(ThreadId, bool)>,
    }

    impl PartWorld for Rendezvous {
        type Event = ();
        fn handle(&mut self, _now: Cycles, _ev: (), _io: &mut PartIo<'_, ()>) {
            let (count, cv) = &*self.arrived;
            let mut n = count.lock().expect("rendezvous lock");
            *n += 1;
            cv.notify_all();
            let timeout = Duration::from_secs(30);
            let (n, _) = cv
                .wait_timeout_while(n, timeout, |n| *n < self.quorum)
                .expect("rendezvous lock");
            self.drained_on = Some((std::thread::current().id(), *n >= self.quorum));
        }
    }

    fn drained_on(drain: Drain, threads: usize, quorum: usize) -> Vec<(ThreadId, bool)> {
        let arrived = Arc::new((Mutex::new(0), Condvar::new()));
        let worlds = (0..2)
            .map(|_| Rendezvous {
                quorum,
                arrived: Arc::clone(&arrived),
                drained_on: None,
            })
            .collect();
        let mut eng = PartitionedEngine::new(worlds, Cycles(10));
        for p in 0..2 {
            eng.queue_mut(p).schedule(Cycles(0), ());
        }
        with_drain(drain, || eng.run_to_completion(threads));
        eng.into_worlds()
            .into_iter()
            .map(|w| w.drained_on.expect("drained"))
            .collect()
    }

    #[test]
    fn forced_paths_pick_the_draining_threads() {
        let me = std::thread::current().id();
        for (drain, threads) in [(Drain::Inline, 4), (Drain::FanOut, 1)] {
            let on = drained_on(drain, threads, 1);
            assert!(on.iter().all(|&(t, _)| t == me), "{drain:?} at {threads}");
        }
        // Both handlers wait for each other, so a fanned-out window
        // completes only with the coordinator draining one partition
        // and a helper the other.
        let on = drained_on(Drain::FanOut, 4, 2);
        assert!(
            on.iter().all(|&(_, met)| met),
            "the two drains never overlapped"
        );
        assert!(
            on.iter().any(|&(t, _)| t == me),
            "the coordinator drained nothing"
        );
        assert!(
            on.iter().any(|&(t, _)| t != me),
            "no helper drained anything"
        );
    }

    #[test]
    fn gate_learns_each_size_class() {
        let mut gate = Gate::default();
        let (small, large) = (size_class(2), size_class(40));
        assert_eq!((size_class(3), size_class(4), size_class(5)), (2, 2, 3));
        assert_ne!(small, large);
        assert!(!gate.fan_out(small), "first timed window drains inline");
        gate.record(small, 2, false, 2_000.0);
        assert!(gate.fan_out(small), "then the hand-off gets measured");
        gate.record(small, 2, true, 20_000.0);
        assert!(!gate.fan_out(small), "a costly hand-off closes the gate");
        assert!(!gate.fan_out(large), "classes learn independently");
        gate.record(large, 40, false, 2_000_000.0);
        gate.record(large, 40, true, 1_200_000.0);
        assert!(gate.fan_out(large), "a cheaper fan-out keeps the gate open");
        // Inline windows decay the small class's fan-out cost until the
        // gate re-tries it.
        let retried = (0..10_000).position(|_| {
            gate.record(small, 2, false, 2_000.0);
            gate.fan_out(small)
        });
        assert!(
            retried.is_some_and(|w| w > 100),
            "re-try after {retried:?} windows"
        );
    }

    #[test]
    fn ring_token_is_causal() {
        let traces = ring_traces(4, 4);
        // Token 0 lands on partition 0 at t=5, token k at 5 + 100k on
        // partition k mod 4.
        for (p, trace) in traces.iter().enumerate() {
            for &(t, hop) in trace {
                assert_eq!(hop as usize % 4, p);
                assert_eq!(t, Cycles(5 + 100 * u64::from(hop)));
            }
        }
    }

    /// A `World` that chains local events; used through [`SoloWorld`] to
    /// check single-partition equivalence with the global engine.
    struct Countdown {
        fired: Vec<(Cycles, u32)>,
    }

    impl World for Countdown {
        type Event = u32;
        fn handle(&mut self, now: Cycles, ev: u32, q: &mut EventQueue<u32>) {
            self.fired.push((now, ev));
            if ev > 0 {
                q.schedule_after(now, Cycles(7), ev - 1);
            }
        }
    }

    #[test]
    fn single_partition_matches_global_engine() {
        let mut global = Engine::new(Countdown { fired: vec![] });
        global.queue_mut().schedule(Cycles(3), 5);
        global.queue_mut().schedule(Cycles(3), 2);
        global.run_to_completion();

        let mut part =
            PartitionedEngine::new(vec![SoloWorld(Countdown { fired: vec![] })], Cycles(1));
        part.queue_mut(0).schedule(Cycles(3), 5);
        part.queue_mut(0).schedule(Cycles(3), 2);
        assert_eq!(part.run_to_completion(1), RunOutcome::Drained);

        let part_events = part.events_processed();
        let solo = part.into_worlds().remove(0).0;
        assert_eq!(global.world().fired, solo.fired);
        assert_eq!(global.events_processed(), part_events);
    }

    #[test]
    fn horizon_and_budget_outcomes() {
        for drain in DRAINS {
            with_drain(drain, horizon_and_budget_case);
        }
    }

    fn horizon_and_budget_case() {
        let worlds: Vec<RingNode> = (0..2)
            .map(|_| RingNode {
                hops_left: 1000,
                delay: Cycles(10),
                trace: Vec::new(),
            })
            .collect();
        let mut eng = PartitionedEngine::new(worlds, Cycles(10));
        eng.queue_mut(0).schedule(Cycles(0), 0);
        assert_eq!(eng.run(Cycles(55), u64::MAX, 2), RunOutcome::HorizonReached);
        // Events at 0, 10, ..., 50 fired (6), the one at 60 is pending.
        assert_eq!(eng.events_processed(), 6);
        assert_eq!(eng.run(Cycles::MAX, 3, 2), RunOutcome::BudgetExhausted);
        assert_eq!(eng.run_to_completion(2), RunOutcome::Drained);
        // Each node forwards until its own 1000-hop budget drains, plus
        // the final arrival that forwards nothing: 2 * 1000 + 1.
        assert_eq!(eng.events_processed(), 2001);
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn undershooting_lookahead_panics() {
        struct Cheat;
        impl PartWorld for Cheat {
            type Event = ();
            fn handle(&mut self, now: Cycles, _ev: (), io: &mut PartIo<'_, ()>) {
                io.send(1, now + Cycles(1), ()); // lookahead is 1000
            }
        }
        let mut eng = PartitionedEngine::new(vec![Cheat, Cheat], Cycles(1000));
        eng.queue_mut(0).schedule(Cycles(0), ());
        eng.run_to_completion(1);
    }

    #[test]
    fn empty_engine_drains() {
        let mut eng: PartitionedEngine<RingNode> = PartitionedEngine::new(Vec::new(), Cycles(1));
        assert_eq!(eng.run_to_completion(4), RunOutcome::Drained);
    }

    #[test]
    fn self_send_has_no_lookahead_floor() {
        struct SelfTalk {
            left: u32,
        }
        impl PartWorld for SelfTalk {
            type Event = ();
            fn handle(&mut self, now: Cycles, _ev: (), io: &mut PartIo<'_, ()>) {
                if self.left > 0 {
                    self.left -= 1;
                    let me = io.part();
                    io.send(me, now + Cycles(1), ()); // below lookahead: legal locally
                }
            }
        }
        let mut eng = PartitionedEngine::new(vec![SelfTalk { left: 9 }], Cycles(1000));
        eng.queue_mut(0).schedule(Cycles(0), ());
        assert_eq!(eng.run_to_completion(1), RunOutcome::Drained);
        assert_eq!(eng.events_processed(), 10);
    }
}
