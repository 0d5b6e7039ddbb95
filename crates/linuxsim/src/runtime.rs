//! Execute application work on a Linux core.
//!
//! Composes the three noise mechanisms — timer ticks, kernel daemons, and
//! CFS timeslicing against competing tasks — into one question the
//! simulation asks constantly: *a thread starts `work` cycles of
//! computation on core C at time t; when does it finish, and what happened
//! to it?* McKernel cores answer the same question with `finish = t + work`
//! (plus cache interference handled elsewhere), which is the entire point
//! of the paper.

use crate::cfs::CfsParams;
use crate::daemons::DaemonSource;
use crate::occupancy::CoreOccupancy;
use crate::tick::{Interruption, TickSource};
use hwmodel::cpu::CoreId;
use simcore::{Cycles, StreamKey, StreamRng};

/// Work shorter than this runs inside the task's own timeslice: a spinning
/// MPI process or FWQ probe is not continuously descheduled — it only pays
/// when its slice happens to expire mid-quantum (short-burst co-runner
/// wakeups, softirq work). Longer quanta see the full CFS fair share.
const SLICE_MODEL_THRESHOLD: Cycles = Cycles(2_800_000); // 1 ms

/// Result of running a quantum on a Linux core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecOutcome {
    /// Completion instant.
    pub finish: Cycles,
    /// Time stolen by ticks + daemons.
    pub stolen: Cycles,
    /// Extra wall time due to CFS sharing with competing tasks.
    pub contention: Cycles,
    /// Number of kernel interruptions experienced.
    pub interruptions: u32,
    /// Largest single interruption (the paper correlates collective
    /// latency with the *largest* delay on any node).
    pub max_interruption: Cycles,
}

/// Noise-generating runtime of one Linux core.
#[derive(Debug)]
pub struct LinuxCoreRuntime {
    /// Which core this is.
    pub core: CoreId,
    tick: Option<TickSource>,
    daemons: Vec<DaemonSource>,
    params: CfsParams,
    /// `"slice"` pre-mixed into the core's stream: the short-quantum
    /// slice-expiry draw for a quantum starting at `t` is `stream(t)`.
    slice_key: StreamKey,
}

impl LinuxCoreRuntime {
    /// Runtime with explicit sources. `tick = None` models a core with the
    /// tick fully suppressed (used by the A4 scheduler ablation; real RHEL6
    /// cannot do this — that is McKernel's trick).
    pub fn new(core: CoreId, tick: Option<TickSource>, daemons: Vec<DaemonSource>) -> Self {
        let rng = StreamRng::root(0x10e).stream("core", u64::from(core.0));
        LinuxCoreRuntime::with_rng(core, tick, daemons, rng)
    }

    /// Same, with an explicit randomness stream (decorrelates nodes).
    pub fn with_rng(
        core: CoreId,
        tick: Option<TickSource>,
        daemons: Vec<DaemonSource>,
        rng: StreamRng,
    ) -> Self {
        LinuxCoreRuntime {
            core,
            tick,
            daemons,
            params: CfsParams::default(),
            slice_key: rng.key("slice"),
        }
    }

    /// Scheduler parameters (shared with wake-latency estimation).
    pub fn params(&self) -> &CfsParams {
        &self.params
    }

    /// Attach an additional noise source (e.g. phase-gated IRQ pressure
    /// from a co-located job).
    pub fn push_daemon(&mut self, d: DaemonSource) {
        self.daemons.push(d);
    }

    /// Fold every tick and daemon interruption in `[from, to)` into
    /// `(stolen, count, max single)`.
    fn fold_interruptions(&self, from: Cycles, to: Cycles) -> (Cycles, u32, Cycles) {
        let mut acc = (Cycles::ZERO, 0u32, Cycles::ZERO);
        let mut add = |i: Interruption| {
            acc.0 += i.cost;
            acc.1 += 1;
            acc.2 = acc.2.max(i.cost);
        };
        if let Some(t) = &self.tick {
            t.for_each_in(from, to, &mut add);
        }
        for d in &self.daemons {
            d.for_each_in(from, to, &mut add);
        }
        acc
    }

    /// Run `work` cycles starting at `start`, against the competing load in
    /// `occ`. See module docs.
    pub fn execute(&self, start: Cycles, work: Cycles, occ: &CoreOccupancy) -> ExecOutcome {
        // Short work executes within the task's own timeslice: it only
        // pays contention when the slice expires mid-quantum, as a short
        // stochastic stall (co-runners are woken, run briefly, yield).
        if work < SLICE_MODEL_THRESHOLD {
            let n = occ.competitors_at(self.core, start);
            let mut contention = Cycles::ZERO;
            if n > 0 {
                let slice = self.params.timeslice(n + 1);
                let mut r = self.slice_key.stream(start.raw());
                let p_hit = work.raw() as f64 / slice.raw() as f64;
                if r.chance(p_hit.min(1.0)) {
                    let mean = Cycles::from_us(6).raw() as f64 * f64::from(n.min(4));
                    contention = Cycles((r.exp_mean(mean) as u64).min(
                        Cycles::from_us(20).raw(),
                    ));
                }
            }
            let busy_end = start + work + contention;
            let (stolen, count, max_one) = self.noise_over(start, busy_end);
            return ExecOutcome {
                finish: busy_end + stolen,
                stolen,
                contention,
                interruptions: count,
                max_interruption: max_one,
            };
        }
        // Phase 1: CFS contention stretch, walking uniform load segments.
        let horizon = start + work * 64 + Cycles::from_secs(2); // generous cap
        let mut t = start;
        let mut remaining = work.raw();
        let mut contention = Cycles::ZERO;
        while remaining > 0 {
            let seg = occ.segment_at(self.core, t, horizon);
            let n = seg.competitors;
            if n == 0 {
                // Uncontended: run to completion or segment end.
                let span = (seg.end - t).raw().min(remaining);
                t += Cycles(span);
                remaining -= span;
                if seg.end >= horizon && remaining > 0 {
                    // No more load changes: finish uncontended.
                    t += Cycles(remaining);
                    remaining = 0;
                }
            } else {
                let seg_len = (seg.end - t).raw();
                let share = u64::from(n) + 1;
                // Work accomplished in this segment under fair sharing,
                // including context-switch tax per slice round.
                let slice = self.params.timeslice(n + 1).raw().max(1);
                let eff_slice = slice.saturating_sub(2 * self.params.ctx_switch.raw()).max(1);
                let progress = (seg_len / share) * eff_slice / slice;
                if progress >= remaining {
                    // Finishes inside the segment.
                    let need_wall =
                        remaining * share * slice / eff_slice;
                    contention += Cycles(need_wall - remaining);
                    t += Cycles(need_wall);
                    remaining = 0;
                } else {
                    remaining -= progress;
                    contention += Cycles(seg_len - progress);
                    t = seg.end;
                }
            }
        }
        let busy_end = t;
        let (stolen, count, max_one) = self.noise_over(start, busy_end);
        ExecOutcome {
            finish: busy_end + stolen,
            stolen,
            contention,
            interruptions: count,
            max_interruption: max_one,
        }
    }

    /// Tick + daemon interruptions over the occupied window, extended to
    /// fixpoint (interruptions during makeup time can themselves be
    /// interrupted). Returns (stolen, count, max single).
    fn noise_over(&self, start: Cycles, busy_end: Cycles) -> (Cycles, u32, Cycles) {
        let mut acc = (Cycles::ZERO, 0u32, Cycles::ZERO);
        for _ in 0..8 {
            let pass = self.fold_interruptions(start, busy_end + acc.0);
            let converged = pass.0 == acc.0;
            acc = pass;
            if converged {
                break;
            }
        }
        acc
    }
}

/// A noiseless runtime for comparison — what an LWK core does: no tick,
/// no daemons, cooperative scheduling, nothing shares the core.
pub fn noiseless_execute(start: Cycles, work: Cycles) -> ExecOutcome {
    ExecOutcome {
        finish: start + work,
        stolen: Cycles::ZERO,
        contention: Cycles::ZERO,
        interruptions: 0,
        max_interruption: Cycles::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::StreamRng;

    fn busy_runtime() -> LinuxCoreRuntime {
        let rng = StreamRng::root(11).stream("core", 0);
        LinuxCoreRuntime::new(
            CoreId(0),
            Some(TickSource::hz1000(rng.stream("tick", 0))),
            DaemonSource::standard_set(&rng),
        )
    }

    #[test]
    fn uncontended_work_stretches_only_by_noise() {
        let rt = busy_runtime();
        let occ = {
            let mut o = CoreOccupancy::new();
            o.seal();
            o
        };
        let work = Cycles::from_ms(100);
        let out = rt.execute(Cycles::from_us(1), work, &occ);
        assert_eq!(out.contention, Cycles::ZERO);
        assert!(out.stolen > Cycles::ZERO, "100ms hits ~100 ticks");
        assert!(out.interruptions >= 90);
        assert_eq!(out.finish, Cycles::from_us(1) + work + out.stolen);
        // Noise is percent-scale, not integer-factor scale.
        let overhead = out.stolen.raw() as f64 / work.raw() as f64;
        assert!(overhead < 0.05, "overhead {overhead}");
    }

    #[test]
    fn short_quantum_usually_clean_sometimes_hit() {
        // FWQ regime: 4k-cycle quanta; most miss the tick, some don't.
        let rt = busy_runtime();
        let mut occ = CoreOccupancy::new();
        occ.seal();
        let mut t = Cycles(1);
        let (mut clean, mut hit) = (0, 0);
        for _ in 0..20_000 {
            let out = rt.execute(t, Cycles(4_000), &occ);
            if out.stolen == Cycles::ZERO {
                clean += 1;
            } else {
                hit += 1;
            }
            t = out.finish;
        }
        assert!(clean > 15_000, "clean {clean}");
        assert!(hit > 10, "hit {hit}");
    }

    #[test]
    fn contention_stretches_by_fair_share() {
        let rt = busy_runtime();
        let mut occ = CoreOccupancy::new();
        // 15 competitors throughout: the Fig. 5c worst case.
        occ.add_load(CoreId(0), Cycles::ZERO, Cycles::from_secs(100), 15);
        occ.seal();
        let work = Cycles::from_ms(10);
        let out = rt.execute(Cycles(1), work, &occ);
        let ratio = (out.finish - Cycles(1)).raw() as f64 / work.raw() as f64;
        assert!((14.0..20.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn contention_ends_when_load_ends() {
        let rt = busy_runtime();
        let mut occ = CoreOccupancy::new();
        occ.add_load(CoreId(0), Cycles::ZERO, Cycles::from_ms(1), 3);
        occ.seal();
        // 10ms of work, only the first 1ms contended.
        let out = rt.execute(Cycles(1), Cycles::from_ms(10), &occ);
        let wall = (out.finish - Cycles(1)).raw() as f64;
        let ratio = wall / Cycles::from_ms(10).raw() as f64;
        assert!(ratio < 1.15, "ratio {ratio}");
        assert!(out.contention > Cycles::ZERO);
    }

    #[test]
    fn noiseless_is_exact() {
        let out = noiseless_execute(Cycles(1_000), Cycles(4_000));
        assert_eq!(out.finish, Cycles(5_000));
        assert_eq!(out.interruptions, 0);
        assert_eq!(out.stolen, Cycles::ZERO);
    }

    #[test]
    fn tickless_runtime_has_only_daemon_noise() {
        let rng = StreamRng::root(13).stream("core", 1);
        let rt = LinuxCoreRuntime::new(
            CoreId(1),
            None,
            vec![DaemonSource::watchdog(rng.stream("watchdog", 0))],
        );
        let mut occ = CoreOccupancy::new();
        occ.seal();
        let out = rt.execute(Cycles(1), Cycles::from_secs(2), &occ);
        // Watchdog only: ~2 events in 2 seconds.
        assert!(out.interruptions <= 5, "{}", out.interruptions);
        assert!(out.stolen < Cycles::from_us(100));
    }

    #[test]
    fn fold_matches_collected_interruptions() {
        let rng = StreamRng::root(11).stream("core", 0);
        let mut rt = busy_runtime();
        // A phase-gated source, as the co-located job attaches.
        rt.push_daemon(
            DaemonSource::eth_irq(rng.stream("eth", 0))
                .with_activity(20.0)
                .with_windows(vec![(Cycles::from_ms(5), Cycles::from_ms(33))]),
        );
        let tick = TickSource::hz1000(rng.stream("tick", 0));
        let mut daemons = DaemonSource::standard_set(&rng);
        daemons.push(
            DaemonSource::eth_irq(rng.stream("eth", 0))
                .with_activity(20.0)
                .with_windows(vec![(Cycles::from_ms(5), Cycles::from_ms(33))]),
        );
        for (from, to) in [
            (Cycles::ZERO, Cycles::from_ms(1)),
            (Cycles(1), Cycles::from_ms(9)),
            (Cycles::from_ms(4), Cycles::from_ms(47)),
            (Cycles::from_us(9_999), Cycles::from_ms(250)),
            (Cycles::from_ms(3), Cycles::from_ms(3)),
        ] {
            let mut all = tick.interruptions_in(from, to);
            for d in &daemons {
                all.extend(d.interruptions_in(from, to));
            }
            let want = (
                all.iter().map(|i| i.cost).sum::<Cycles>(),
                all.len() as u32,
                all.iter().map(|i| i.cost).max().unwrap_or(Cycles::ZERO),
            );
            assert_eq!(rt.fold_interruptions(from, to), want, "[{from:?}, {to:?})");
        }
    }

    #[test]
    fn determinism() {
        let rt1 = busy_runtime();
        let rt2 = busy_runtime();
        let mut occ = CoreOccupancy::new();
        occ.add_load(CoreId(0), Cycles::from_ms(2), Cycles::from_ms(5), 2);
        occ.seal();
        let a = rt1.execute(Cycles(123), Cycles::from_ms(7), &occ);
        let b = rt2.execute(Cycles(123), Cycles::from_ms(7), &occ);
        assert_eq!(a, b);
    }
}
