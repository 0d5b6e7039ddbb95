//! The occupancy step index against the linear interval scan it replaced.
//!
//! `CoreOccupancy` answers `competitors_at` and `segment_at` from a sorted
//! step function built on a core's first query. The oracle below is the
//! original implementation: sum the tasks of every interval covering `t`,
//! and end the segment at the nearest interval boundary after `t`, capped
//! at the horizon.

use hwmodel::cpu::CoreId;
use linuxsim::occupancy::{CoreOccupancy, Segment};
use proptest::prelude::*;
use simcore::Cycles;

/// `(core, start, end, tasks)`, half-open.
type Load = (u16, u64, u64, u32);

fn oracle_competitors(loads: &[Load], core: u16, t: u64) -> u32 {
    loads
        .iter()
        .filter(|l| l.0 == core && l.1 <= t && t < l.2)
        .map(|l| l.3)
        .sum()
}

fn oracle_segment(loads: &[Load], core: u16, t: u64, horizon: u64) -> Segment {
    let mut next_change = horizon;
    for l in loads.iter().filter(|l| l.0 == core) {
        if l.1 > t {
            next_change = next_change.min(l.1);
        }
        if l.2 > t {
            next_change = next_change.min(l.2);
        }
    }
    Segment {
        start: Cycles(t),
        end: Cycles(next_change.max(t)),
        competitors: oracle_competitors(loads, core, t),
    }
}

/// Intervals on a coarse grid, so boundaries are often shared, intervals
/// often abut with equal counts, and gaps appear between them; one in four
/// is off-grid.
fn loads() -> impl Strategy<Value = Vec<Load>> {
    prop::collection::vec(
        (0u16..3, 0u64..40, 1u64..8, 1u32..4, 0u64..4, 0u64..97).prop_map(
            |(core, slot, len, tasks, kind, jitter)| {
                let start = slot * 100;
                let end = (slot + len) * 100;
                if kind == 0 {
                    (core, start + jitter, end + jitter, tasks)
                } else {
                    (core, start, end, tasks)
                }
            },
        ),
        0..60,
    )
}

/// Query instants from before the first bound to past the last, on and
/// just beside grid points, with horizons both beyond and short of the
/// next change.
fn queries() -> impl Strategy<Value = Vec<(u16, u64, u64)>> {
    prop::collection::vec(
        (0u16..4, 0u64..5_000, 0u64..3, 0u64..5_200).prop_map(|(core, t, snap, horizon)| {
            let t = match snap {
                0 => t / 100 * 100,
                1 => (t / 100 * 100).saturating_sub(1),
                _ => t,
            };
            (core, t, horizon)
        }),
        1..80,
    )
}

fn check(occ: &CoreOccupancy, loads: &[Load], qs: &[(u16, u64, u64)]) {
    for &(core, t, horizon) in qs {
        assert_eq!(
            occ.competitors_at(CoreId(core), Cycles(t)),
            oracle_competitors(loads, core, t),
            "competitors_at core {core} t {t}"
        );
        assert_eq!(
            occ.segment_at(CoreId(core), Cycles(t), Cycles(horizon)),
            oracle_segment(loads, core, t, horizon),
            "segment_at core {core} t {t} horizon {horizon}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every query agrees with the linear scan, including queries made
    /// before `seal` whose index later additions must invalidate.
    #[test]
    fn index_matches_linear_scan(ls in loads(), qs in queries(), split in 0usize..61) {
        let split = split.min(ls.len());
        let mut occ = CoreOccupancy::new();
        for &(core, s, e, n) in &ls[..split] {
            occ.add_load(CoreId(core), Cycles(s), Cycles(e), n);
        }
        // Build the index of every core early, on the first batch only.
        check(&occ, &ls[..split], &qs);
        for &(core, s, e, n) in &ls[split..] {
            occ.add_load(CoreId(core), Cycles(s), Cycles(e), n);
        }
        occ.seal();
        check(&occ, &ls, &qs);
        for core in 0..4u16 {
            prop_assert_eq!(occ.has_load(CoreId(core)), ls.iter().any(|l| l.0 == core));
        }
    }
}
