//! The scheduler tick.
//!
//! RHEL 6 kernels interrupt every busy core CONFIG_HZ times a second to run
//! scheduler accounting, timers, and RCU. Each interruption steals a few
//! microseconds from whatever was running — exactly the per-millisecond
//! noise floor visible in the paper's Fig. 5a for *idle* Linux. Idle cores
//! are skipped (NO_HZ), and McKernel cores never tick at all — McKernel is
//! tick-less by construction, so it simply has no [`TickSource`].

use simcore::{Cycles, StreamKey, StreamRng};

/// Deterministic per-core tick event source.
///
/// Tick instants are the fixed grid `k * period`; the *cost* of tick `k`
/// is drawn from a stream indexed by `k`, so queries are reproducible and
/// order-independent across windows.
#[derive(Debug, Clone)]
pub struct TickSource {
    period: Cycles,
    base_cost: Cycles,
    jitter_cost: Cycles,
    /// 1-in-N ticks run extended work (RCU callbacks, timer cascades).
    heavy_one_in: u64,
    heavy_extra: Cycles,
    /// `"tick-cost"` pre-mixed into the per-core stream.
    cost_key: StreamKey,
}

/// One interruption: starts at `at`, steals `cost` from the running task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interruption {
    /// Start instant.
    pub at: Cycles,
    /// Stolen time.
    pub cost: Cycles,
}

impl TickSource {
    /// CONFIG_HZ=1000 tick with era-typical costs. `rng` must be the
    /// per-core stream so cores don't correlate.
    pub fn hz1000(rng: StreamRng) -> Self {
        TickSource {
            period: Cycles::from_ms(1),
            base_cost: Cycles::from_us(2),
            jitter_cost: Cycles::from_us(3),
            heavy_one_in: 64,
            heavy_extra: Cycles::from_us(14),
            cost_key: rng.key("tick-cost"),
        }
    }

    /// Tick period.
    pub fn period(&self) -> Cycles {
        self.period
    }

    /// Cost of tick number `k` (deterministic in `k`).
    fn cost_of(&self, k: u64) -> Cycles {
        let mut r = self.cost_key.stream(k);
        let mut cost = self.base_cost + self.jitter_cost.scale(r.uniform());
        if self.heavy_one_in > 0 && r.range_u64(0, self.heavy_one_in) == 0 {
            cost += self.heavy_extra.scale(0.3 + 0.7 * r.uniform());
        }
        cost
    }

    /// Visit every tick interruption in `[from, to)`, in time order. The
    /// core is busy throughout (the caller only asks about windows where
    /// the app occupies the core; NO_HZ means idle windows generate
    /// nothing).
    pub fn for_each_in(&self, from: Cycles, to: Cycles, mut f: impl FnMut(Interruption)) {
        if to <= from {
            return;
        }
        let p = self.period.raw();
        let first = from.raw().div_ceil(p);
        let last = (to.raw() - 1) / p;
        for k in first..=last {
            if k > 0 || from == Cycles::ZERO {
                f(Interruption {
                    at: Cycles(k * p),
                    cost: self.cost_of(k),
                });
            }
        }
    }

    /// All tick interruptions in `[from, to)`, collected.
    pub fn interruptions_in(&self, from: Cycles, to: Cycles) -> Vec<Interruption> {
        let mut out = Vec::new();
        self.for_each_in(from, to, |i| out.push(i));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src() -> TickSource {
        TickSource::hz1000(StreamRng::root(7).stream("core", 3))
    }

    #[test]
    fn ticks_land_on_the_millisecond_grid() {
        let s = src();
        let ints = s.interruptions_in(Cycles::ZERO, Cycles::from_ms(5));
        assert_eq!(ints.len(), 5); // k = 0..4? k=0 only when from==0
        for (i, int) in ints.iter().enumerate() {
            assert_eq!(int.at.raw() % Cycles::from_ms(1).raw(), 0, "tick {i}");
        }
    }

    #[test]
    fn window_boundaries_are_half_open() {
        let s = src();
        let a = s.interruptions_in(Cycles::from_ms(1), Cycles::from_ms(2));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].at, Cycles::from_ms(1));
        // to == tick instant: excluded.
        let b = s.interruptions_in(Cycles::from_us(100), Cycles::from_ms(1));
        assert!(b.is_empty());
    }

    #[test]
    fn costs_are_deterministic_and_plausible() {
        let s1 = src();
        let s2 = src();
        let a = s1.interruptions_in(Cycles::ZERO, Cycles::from_ms(100));
        let b = s2.interruptions_in(Cycles::ZERO, Cycles::from_ms(100));
        assert_eq!(a, b, "same stream, same costs");
        for i in &a {
            assert!(i.cost >= Cycles::from_us(2));
            assert!(i.cost <= Cycles::from_us(25));
        }
        // Some cost variance must exist.
        assert!(a.iter().any(|i| i.cost != a[0].cost));
    }

    #[test]
    fn heavy_ticks_occur_at_expected_rate() {
        let s = src();
        let ints = s.interruptions_in(Cycles::ZERO, Cycles::from_secs(2));
        let heavy = ints
            .iter()
            .filter(|i| i.cost > Cycles::from_us(6))
            .count();
        // ~1/64 of 2000 ticks ≈ 31; allow wide slack.
        assert!((10..80).contains(&heavy), "heavy ticks: {heavy}");
    }

    #[test]
    fn different_cores_decorrelate() {
        let root = StreamRng::root(7);
        let a = TickSource::hz1000(root.stream("core", 0));
        let b = TickSource::hz1000(root.stream("core", 1));
        let ia = a.interruptions_in(Cycles::ZERO, Cycles::from_ms(50));
        let ib = b.interruptions_in(Cycles::ZERO, Cycles::from_ms(50));
        assert_ne!(
            ia.iter().map(|i| i.cost).collect::<Vec<_>>(),
            ib.iter().map(|i| i.cost).collect::<Vec<_>>()
        );
    }

    /// The tick grid as it was first written: a `Vec` of interruptions
    /// whose costs come from `stream("tick-cost", k)` of the core stream.
    fn reference(rng: &StreamRng, s: &TickSource, from: Cycles, to: Cycles) -> Vec<Interruption> {
        if to <= from {
            return Vec::new();
        }
        let p = s.period.raw();
        let first = from.raw().div_ceil(p);
        let last = (to.raw() - 1) / p;
        (first..=last)
            .filter(|&k| k > 0 || from == Cycles::ZERO)
            .map(|k| {
                let mut r = rng.stream("tick-cost", k);
                let mut cost = s.base_cost + s.jitter_cost.scale(r.uniform());
                if s.heavy_one_in > 0 && r.range_u64(0, s.heavy_one_in) == 0 {
                    cost += s.heavy_extra.scale(0.3 + 0.7 * r.uniform());
                }
                Interruption { at: Cycles(k * p), cost }
            })
            .collect()
    }

    #[test]
    fn visitor_matches_reference_and_its_fold() {
        let rng = StreamRng::root(7).stream("core", 3);
        let s = TickSource::hz1000(rng.clone());
        let windows = [
            (Cycles::ZERO, Cycles::from_ms(40)),
            (Cycles(1), Cycles::from_ms(1)),
            (Cycles::from_us(999), Cycles::from_us(1_001)),
            (Cycles::from_ms(5), Cycles::from_ms(5)),
            (Cycles::from_ms(123) + Cycles(7), Cycles::from_secs(1)),
        ];
        for (from, to) in windows {
            let want = reference(&rng, &s, from, to);
            assert_eq!(s.interruptions_in(from, to), want, "[{from:?}, {to:?})");
            let (mut stolen, mut count, mut max) = (Cycles::ZERO, 0usize, Cycles::ZERO);
            s.for_each_in(from, to, |i| {
                stolen += i.cost;
                count += 1;
                max = max.max(i.cost);
            });
            assert_eq!(stolen, want.iter().map(|i| i.cost).sum());
            assert_eq!(count, want.len());
            assert_eq!(max, want.iter().map(|i| i.cost).max().unwrap_or(Cycles::ZERO));
        }
    }

    #[test]
    fn empty_window_is_empty() {
        let s = src();
        assert!(s.interruptions_in(Cycles::from_ms(3), Cycles::from_ms(3)).is_empty());
    }
}
