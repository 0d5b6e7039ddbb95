//! Who else is runnable on each core over time.
//!
//! The in-situ workload generator (Hadoop model) registers its tasks' busy
//! intervals here; the runtime then stretches application quanta by the
//! CFS fair share wherever intervals overlap. On a cgroup-only
//! configuration Hadoop tasks may land on the *application's* cores; with
//! `isolcpus` they cannot (only kernel noise remains); on McKernel the
//! LWK cores are simply invisible to Linux so nothing ever lands there.

use hwmodel::cpu::CoreId;
use simcore::Cycles;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// A half-open busy interval of competing tasks on a core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Load {
    start: u64,
    end: u64,
    tasks: u32,
}

/// Per-core competing-load timeline.
#[derive(Debug, Default)]
pub struct CoreOccupancy {
    loads: BTreeMap<CoreId, CoreLoads>,
    sealed: bool,
}

/// One core's registered intervals and their step index. The index is
/// built on the core's first query at or after `first_start`, not at
/// `seal`: a node registers load on every Hadoop core but only ever
/// queries its application and proxy cores, and the set-up offloads that
/// query the proxy core happen before any load starts.
#[derive(Debug)]
struct CoreLoads {
    /// The registered intervals, until a sealed timeline builds the index
    /// from them; the index then replaces them (behind a lock only so a
    /// `&self` query can free them).
    loads: Mutex<Vec<Load>>,
    /// Earliest interval start: before it the count is zero and the next
    /// change is this instant, no index needed.
    first_start: u64,
    steps: OnceLock<Steps>,
}

/// The competitor count as a step function of time: `counts[i]` holds on
/// `[bounds[i], bounds[i + 1])`, zero before `bounds[0]` and from the last
/// bound on. Every distinct interval boundary is a step, even between
/// equal counts, because `segment_at` reports each one.
#[derive(Debug)]
struct Steps {
    bounds: Vec<u64>,
    counts: Vec<u32>,
}

impl Steps {
    fn build(loads: &[Load]) -> Steps {
        let mut bounds: Vec<u64> = loads.iter().flat_map(|l| [l.start, l.end]).collect();
        bounds.sort_unstable();
        bounds.dedup();
        // Count deltas at each bound, then a running sum. Wrapping
        // arithmetic: a delta can be negative, the prefix sums cannot.
        let mut counts = vec![0u32; bounds.len()];
        let slot = |t: u64| bounds.binary_search(&t).expect("every boundary is a bound");
        for l in loads {
            let (s, e) = (slot(l.start), slot(l.end));
            counts[s] = counts[s].wrapping_add(l.tasks);
            counts[e] = counts[e].wrapping_sub(l.tasks);
        }
        let mut running = 0u32;
        for c in &mut counts {
            running = running.wrapping_add(*c);
            *c = running;
        }
        Steps { bounds, counts }
    }

    /// Competitor count at `t` and the first bound after `t`, if any.
    fn at(&self, t: u64) -> (u32, Option<u64>) {
        let next = self.bounds.partition_point(|&b| b <= t);
        let count = if next == 0 { 0 } else { self.counts[next - 1] };
        (count, self.bounds.get(next).copied())
    }
}

/// One uniform segment: `[start, end)` with a constant competitor count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Segment start.
    pub start: Cycles,
    /// Segment end.
    pub end: Cycles,
    /// Competing runnable tasks during the segment.
    pub competitors: u32,
}

impl CoreOccupancy {
    /// Empty timeline.
    pub fn new() -> Self {
        CoreOccupancy::default()
    }

    /// Register `tasks` competing runnable tasks on `core` over
    /// `[start, end)`. Must happen before queries (the generator runs at
    /// experiment setup).
    pub fn add_load(&mut self, core: CoreId, start: Cycles, end: Cycles, tasks: u32) {
        assert!(!self.sealed, "occupancy modified after sealing");
        assert!(end > start && tasks > 0);
        let core = self.loads.entry(core).or_insert_with(|| CoreLoads {
            loads: Mutex::new(Vec::new()),
            first_start: u64::MAX,
            steps: OnceLock::new(),
        });
        let loads = core.loads.get_mut().unwrap_or_else(PoisonError::into_inner);
        loads.push(Load {
            start: start.raw(),
            end: end.raw(),
            tasks,
        });
        core.first_start = core.first_start.min(start.raw());
        // A query before sealing may have built the index already.
        core.steps.take();
    }

    /// Freeze the timeline: any later `add_load` panics.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Competitor count at `t` on `core`, and the core's next load change
    /// after `t`.
    fn step_at(&self, core: CoreId, t: Cycles) -> (u32, Option<u64>) {
        match self.loads.get(&core) {
            None => (0, None),
            Some(c) if t.raw() < c.first_start => (0, Some(c.first_start)),
            Some(c) => c
                .steps
                .get_or_init(|| {
                    let mut loads = c.loads.lock().unwrap_or_else(PoisonError::into_inner);
                    let steps = Steps::build(&loads);
                    if self.sealed {
                        // No `add_load` can follow, so nothing will rebuild.
                        *loads = Vec::new();
                    }
                    steps
                })
                .at(t.raw()),
        }
    }

    /// Competing task count on `core` at instant `t`.
    pub fn competitors_at(&self, core: CoreId, t: Cycles) -> u32 {
        self.step_at(core, t).0
    }

    /// The uniform segment starting at `t`: how many competitors, and until
    /// when that count holds (capped at `horizon`).
    pub fn segment_at(&self, core: CoreId, t: Cycles, horizon: Cycles) -> Segment {
        let (competitors, next) = self.step_at(core, t);
        let next_change = next.map_or(horizon.raw(), |b| b.min(horizon.raw()));
        Segment {
            start: t,
            end: Cycles(next_change.max(t.raw())),
            competitors,
        }
    }

    /// Whether any load was registered on `core`.
    pub fn has_load(&self, core: CoreId) -> bool {
        self.loads.contains_key(&core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u16) -> CoreId {
        CoreId(n)
    }

    #[test]
    fn empty_core_has_no_competitors() {
        let mut o = CoreOccupancy::new();
        o.seal();
        assert_eq!(o.competitors_at(c(3), Cycles(100)), 0);
        let seg = o.segment_at(c(3), Cycles(100), Cycles(10_000));
        assert_eq!(seg.competitors, 0);
        assert_eq!(seg.end, Cycles(10_000));
    }

    #[test]
    fn overlapping_intervals_sum() {
        let mut o = CoreOccupancy::new();
        o.add_load(c(0), Cycles(100), Cycles(200), 2);
        o.add_load(c(0), Cycles(150), Cycles(300), 3);
        o.seal();
        assert_eq!(o.competitors_at(c(0), Cycles(120)), 2);
        assert_eq!(o.competitors_at(c(0), Cycles(160)), 5);
        assert_eq!(o.competitors_at(c(0), Cycles(250)), 3);
        assert_eq!(o.competitors_at(c(0), Cycles(300)), 0, "half-open");
    }

    #[test]
    fn segment_ends_at_next_boundary() {
        let mut o = CoreOccupancy::new();
        o.add_load(c(0), Cycles(100), Cycles(200), 1);
        o.seal();
        let seg = o.segment_at(c(0), Cycles(0), Cycles(1_000));
        assert_eq!(seg, Segment { start: Cycles(0), end: Cycles(100), competitors: 0 });
        let seg = o.segment_at(c(0), Cycles(100), Cycles(1_000));
        assert_eq!(seg.end, Cycles(200));
        assert_eq!(seg.competitors, 1);
        let seg = o.segment_at(c(0), Cycles(200), Cycles(1_000));
        assert_eq!(seg.competitors, 0);
        assert_eq!(seg.end, Cycles(1_000));
    }

    #[test]
    fn cores_are_independent() {
        let mut o = CoreOccupancy::new();
        o.add_load(c(1), Cycles(0), Cycles(100), 4);
        o.seal();
        assert_eq!(o.competitors_at(c(1), Cycles(50)), 4);
        assert_eq!(o.competitors_at(c(2), Cycles(50)), 0);
        assert!(o.has_load(c(1)));
        assert!(!o.has_load(c(2)));
    }

    #[test]
    fn abutting_equal_counts_keep_their_boundary() {
        // [0,100)x2 then [100,200)x2: the count never changes at 100, but
        // the segment still ends there (phase 1 of `execute` rounds per
        // segment, so merging the steps would change results).
        let mut o = CoreOccupancy::new();
        o.add_load(c(0), Cycles(0), Cycles(100), 2);
        o.add_load(c(0), Cycles(100), Cycles(200), 2);
        o.seal();
        let seg = o.segment_at(c(0), Cycles(10), Cycles(1_000));
        assert_eq!(seg, Segment { start: Cycles(10), end: Cycles(100), competitors: 2 });
        let seg = o.segment_at(c(0), Cycles(100), Cycles(1_000));
        assert_eq!(seg, Segment { start: Cycles(100), end: Cycles(200), competitors: 2 });
        // The horizon caps the segment; a horizon behind `t` gives an
        // empty one.
        assert_eq!(o.segment_at(c(0), Cycles(10), Cycles(50)).end, Cycles(50));
        assert_eq!(o.segment_at(c(0), Cycles(300), Cycles(50)).end, Cycles(300));
    }

    #[test]
    fn loads_added_after_a_query_are_seen() {
        let mut o = CoreOccupancy::new();
        o.add_load(c(0), Cycles(0), Cycles(100), 1);
        assert_eq!(o.competitors_at(c(0), Cycles(50)), 1);
        o.add_load(c(0), Cycles(40), Cycles(60), 3);
        o.seal();
        assert_eq!(o.competitors_at(c(0), Cycles(50)), 4);
        assert_eq!(o.segment_at(c(0), Cycles(0), Cycles(1_000)).end, Cycles(40));
    }

    #[test]
    #[should_panic(expected = "after sealing")]
    fn mutation_after_seal_panics() {
        let mut o = CoreOccupancy::new();
        o.seal();
        o.add_load(c(0), Cycles(0), Cycles(1), 1);
    }
}
