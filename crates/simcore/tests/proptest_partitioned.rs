//! Lock-step equivalence proptests: the partitioned engine against one
//! global timer wheel.
//!
//! A generated program (partition count, lookahead, initial events,
//! behavior seed) runs twice over the same share-nothing random world:
//!
//! * **reference** — a single [`Engine`] whose one wheel holds every
//!   partition's events as `(part, payload)` pairs;
//! * **subject** — a [`PartitionedEngine`] with one world per partition,
//!   cross-partition edges going through [`PartIo::send`] and the
//!   windowed inbox merge, at several worker counts.
//!
//! Equivalence claim (matching the `simcore::partition` module doc): the
//! per-partition traces agree *exactly* wherever timestamps differ, and
//! up to ordering within a simultaneous-arrival run — events landing on
//! one partition at the same instant from different sources are sequenced
//! by global schedule order in the reference and by source-partition
//! index in the subject; that interleaving is the one documented
//! semantic difference. Payloads are globally unique (tree-numbered), so
//! canonicalizing each equal-time run by payload makes the comparison
//! exact. With a single partition there is no cross-source interleaving
//! and the raw traces must match event-for-event.
//!
//! Worker-count determinism is asserted with no canonicalization at all:
//! the subject's traces at 2, 3, and 8 threads must be byte-identical to
//! its serial run. Handler randomness derives from the event payload
//! (stateless), never from draw position, so the claim is meaningful —
//! any divergence is an engine bug, not RNG drift.

use proptest::prelude::*;
use simcore::partition::{with_drain, Drain};
use simcore::{Cycles, Engine, EventQueue, PartIo, PartWorld, PartitionedEngine, StreamRng, World};

/// Stop spawning children once a payload's tree number passes this.
/// Roots sit at `(i + 1) << 26`, each level multiplies by 4, so trees go
/// ~7 levels deep — a few hundred events per program at the branching
/// factor below, plenty to cross many lookahead windows.
const CAP: u64 = 1 << 40;

/// What one event does, decided statelessly from its payload.
struct Reaction {
    /// `(dst_part, delay, child_payload)` triples.
    children: Vec<(usize, u64, u64)>,
}

/// The shared behavior of both engines' worlds. All randomness comes from
/// a stream keyed by the (globally unique) payload, so behavior is a pure
/// function of the event — immune to same-instant reordering.
fn react(seed: u64, part: usize, nparts: usize, lookahead: u64, payload: u64) -> Reaction {
    let mut rng = StreamRng::root(seed).stream("ev", payload);
    let mut children = Vec::new();
    if payload >= CAP {
        return Reaction { children };
    }
    // Mean 1.25 children: mildly supercritical so trees reach the depth
    // cap often (a mean-1 process goes extinct too fast to cross many
    // windows), still bounded by CAP to ~hundreds of events per program.
    let n = [0u64, 1, 2, 2][rng.range_u64(0, 4) as usize];
    for k in 0..n {
        let child = payload * 4 + k + 1;
        let dst = rng.range_u64(0, nparts as u64) as usize;
        let delay = if dst == part {
            // Local (and self-send) edges have no lookahead floor; delay 0
            // exercises same-instant local chains.
            rng.range_u64(0, 2 * lookahead + 1)
        } else {
            lookahead + rng.range_u64(0, 3 * lookahead)
        };
        children.push((dst, delay, child));
    }
    Reaction { children }
}

/// Reference: every partition's state in one world, one global wheel.
struct GlobalWorld {
    seed: u64,
    nparts: usize,
    lookahead: u64,
    traces: Vec<Vec<(u64, u64)>>,
}

impl World for GlobalWorld {
    type Event = (usize, u64);

    fn handle(&mut self, now: Cycles, (part, payload): (usize, u64), q: &mut EventQueue<(usize, u64)>) {
        self.traces[part].push((now.raw(), payload));
        for (dst, delay, child) in react(self.seed, part, self.nparts, self.lookahead, payload).children {
            q.schedule(now + Cycles(delay), (dst, child));
        }
    }
}

/// Subject: one of these per partition.
struct PartNode {
    seed: u64,
    lookahead: u64,
    trace: Vec<(u64, u64)>,
}

impl PartWorld for PartNode {
    type Event = u64;

    fn handle(&mut self, now: Cycles, payload: u64, io: &mut PartIo<'_, u64>) {
        self.trace.push((now.raw(), payload));
        let (part, nparts) = (io.part(), io.num_partitions());
        for (dst, delay, child) in react(self.seed, part, nparts, self.lookahead, payload).children {
            io.send(dst, now + Cycles(delay), child);
        }
    }
}

/// One generated program.
#[derive(Clone, Debug)]
struct Program {
    seed: u64,
    nparts: usize,
    lookahead: u64,
    /// `(part, start_offset, init_index)` seeds; payloads are derived.
    inits: Vec<(usize, u64)>,
}

fn programs() -> impl Strategy<Value = Program> {
    (
        0u64..=u64::MAX,
        1usize..6,
        1u64..2000,
        prop::collection::vec((0usize..6, 0u64..5000), 1..10),
    )
        .prop_map(|(seed, nparts, lookahead, raw_inits)| Program {
            seed,
            nparts,
            lookahead,
            inits: raw_inits
                .into_iter()
                .map(|(p, at)| (p % nparts, at))
                .collect(),
        })
}

/// Globally unique root payload for the `i`-th initial event. Children
/// are tree-numbered `payload * 4 + (k + 1)` with `k + 1 ∈ {1, 2}`, so a
/// descendant at depth `d` is `4^d * root + off` with `off` in a range
/// disjoint per depth (`min(d+1) = (4^(d+1)-1)/3 > 2(4^d-1)/3 = max(d)`)
/// and `off < 4^12 < 2^26` — never a multiple of `2^26`, hence never
/// equal to another root or to any other subtree's node.
fn root_payload(i: usize) -> u64 {
    (i as u64 + 1) << 26
}

fn run_reference(p: &Program) -> Vec<Vec<(u64, u64)>> {
    let mut eng = Engine::new(GlobalWorld {
        seed: p.seed,
        nparts: p.nparts,
        lookahead: p.lookahead,
        traces: vec![Vec::new(); p.nparts],
    });
    for (i, &(part, at)) in p.inits.iter().enumerate() {
        eng.queue_mut().schedule(Cycles(at), (part, root_payload(i)));
    }
    eng.run_to_completion();
    std::mem::take(&mut eng.world_mut().traces)
}

fn run_subject(p: &Program, threads: usize) -> Vec<Vec<(u64, u64)>> {
    let worlds: Vec<PartNode> = (0..p.nparts)
        .map(|_| PartNode {
            seed: p.seed,
            lookahead: p.lookahead,
            trace: Vec::new(),
        })
        .collect();
    let mut eng = PartitionedEngine::new(worlds, Cycles(p.lookahead));
    for (i, &(part, at)) in p.inits.iter().enumerate() {
        eng.queue_mut(part).schedule(Cycles(at), root_payload(i));
    }
    eng.run_to_completion(threads);
    eng.into_worlds().into_iter().map(|w| w.trace).collect()
}

/// Sort each equal-time run by payload: the canonical order both engines
/// agree on (payloads are unique, so this is a total order).
fn canonicalize(mut trace: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    trace.sort_by_key(|&(at, payload)| (at, payload));
    trace
}

/// CAP payloads never spawn children, so every time in a trace is bounded
/// by the tree depth times the max delay — sanity that programs drained
/// rather than being truncated by some hidden budget.
fn total_events(traces: &[Vec<(u64, u64)>]) -> usize {
    traces.iter().map(Vec::len).sum()
}

/// Guard against vacuity: the generated programs must actually spawn
/// descendant events (an earlier draft capped payloads below the root
/// numbering, silently reducing every program to its initial events).
#[test]
fn programs_spawn_descendants() {
    let p = Program {
        seed: 7,
        nparts: 4,
        lookahead: 100,
        inits: (0..8).map(|i| (i % 4, i as u64 * 13)).collect(),
    };
    let traces = run_reference(&p);
    assert!(
        total_events(&traces) > 4 * p.inits.len(),
        "only {} events from {} inits — child spawning is broken",
        total_events(&traces),
        p.inits.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partitioned ≡ global wheel, canonically, for any topology.
    #[test]
    fn partitioned_matches_global_wheel(p in programs()) {
        let reference = run_reference(&p);
        let subject = run_subject(&p, 1);
        prop_assert_eq!(total_events(&subject), total_events(&reference));
        for part in 0..p.nparts {
            prop_assert_eq!(
                canonicalize(subject[part].clone()),
                canonicalize(reference[part].clone()),
                "partition {} of {} (lookahead {})", part, p.nparts, p.lookahead
            );
        }
    }

    /// With one partition there is no cross-source interleaving: the raw
    /// traces must match the global engine event-for-event.
    #[test]
    fn single_partition_is_raw_identical(mut p in programs()) {
        p.nparts = 1;
        for init in &mut p.inits {
            init.0 = 0;
        }
        let reference = run_reference(&p);
        let subject = run_subject(&p, 1);
        prop_assert_eq!(&subject[0], &reference[0]);
    }

    /// Worker count and drain path are throughput knobs, never semantics
    /// knobs: raw traces (no canonicalization) identical at every thread
    /// count with every window drained inline, and with every window
    /// fanned out to helper threads.
    #[test]
    fn thread_count_never_changes_traces(p in programs()) {
        let serial = run_subject(&p, 1);
        for drain in [Drain::Inline, Drain::FanOut] {
            for threads in [1usize, 2, 3, 4, 8] {
                let got = with_drain(drain, || run_subject(&p, threads));
                prop_assert_eq!(&got, &serial, "{} threads, {:?}", threads, drain);
            }
        }
    }
}
