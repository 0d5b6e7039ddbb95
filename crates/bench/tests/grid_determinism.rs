//! The figure grids must be bit-identical at any worker count.
//!
//! `fig8_miniapps` (and every other figure binary) submits its whole
//! (app × nodes × OS × run) grid as one `par::parallel_map` call; each
//! cell builds its own cluster from its own seed, so cells are
//! share-nothing and the output vector must not depend on how the pool
//! slices the index space. This pins that down with a miniature fig8
//! grid evaluated at 1/2/4/8 threads, compared at the `f64` bit level —
//! `==` on floats would also pass for a reordered-reduction bug that
//! happens to round the same, bits will not.

use cluster::experiment::run_seed;
use cluster::{Cluster, ClusterConfig, OsVariant};
use simcore::partition::{with_drain, Drain};
use simcore::{par, Cycles};
use workloads::miniapps::MiniApp;

/// A fig8-style cell list, small enough for a test: one app, two node
/// counts, both OS variants, one repetition.
fn cells() -> Vec<(MiniApp, u32, OsVariant, usize)> {
    let app = MiniApp::paper_suite()
        .into_iter()
        .next()
        .expect("paper suite is non-empty");
    let mut cells = Vec::new();
    for nodes in [2u32, 4] {
        for os in [OsVariant::LinuxCgroup, OsVariant::McKernel] {
            cells.push((app.clone(), nodes, os, 0));
        }
    }
    cells
}

fn grid(cells: &[(MiniApp, u32, OsVariant, usize)], threads: usize) -> Vec<u64> {
    par::parallel_map_threads(threads, cells.len(), |ci| {
        let (app, nodes, os, run) = &cells[ci];
        let cfg = ClusterConfig::paper(*os)
            .with_nodes(*nodes)
            .with_seed(run_seed(0xF168, *run));
        let mut cluster = Cluster::build(cfg);
        cluster
            .run_miniapp(app, Cycles::from_ms(1))
            .expect("fault-free")
            .as_secs_f64()
            .to_bits()
    })
}

#[test]
fn fig8_grid_bit_identical_at_any_thread_count() {
    let cells = cells();
    let serial = grid(&cells, 1);
    assert_eq!(serial.len(), cells.len());
    for threads in [2usize, 4, 8] {
        assert_eq!(grid(&cells, threads), serial, "{threads} threads");
    }
}

/// The same grid with the replay engine's drain path forced each way:
/// every window inline on the coordinator, and every window fanned out
/// to helper threads. A serial grid runs each cell's replay at the
/// default engine width; any wider pool runs it at width 1 (no nested
/// oversubscription), so pools of 1 and 2 cover both engine widths.
#[test]
fn fig8_grid_bit_identical_under_both_drain_paths() {
    let cells = cells();
    let want = grid(&cells, 1);
    for drain in [Drain::Inline, Drain::FanOut] {
        for threads in [1usize, 2] {
            let got = with_drain(drain, || grid(&cells, threads));
            assert_eq!(got, want, "{threads} threads, {drain:?}");
        }
    }
}
