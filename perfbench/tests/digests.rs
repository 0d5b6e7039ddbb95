//! Every workload at 4 nodes: the per-cell digests repeat exactly across
//! runs, tracing changes no output, and the traced run's reference walk
//! agrees with the partitioned replay.

use perfbench::{run, Workload};

#[test]
fn four_node_digests_are_stable_and_tracing_changes_nothing() {
    for w in Workload::ALL {
        let a = run(w, 7, 4, false);
        let b = run(w, 7, 4, false);
        assert!(!a.cells.is_empty(), "{w:?} ran no cells");
        assert!(a.cells.iter().all(|c| c.ok), "{w:?}: {:?}", a.cells);
        assert_eq!(a.cells, b.cells, "{w:?} digests differ between runs");
        assert!(a.spans.is_empty(), "untraced runs record no spans");

        let t = run(w, 7, 4, true);
        assert_eq!(
            a.cells, t.cells,
            "{w:?}: tracing changed an output or a check failed"
        );
        assert!(!t.spans.is_empty());
        assert!(t.layers["cluster.build.calls"] == a.cells.len() as f64);
        assert!(a.setup_s > 0.0 && a.wall_s >= a.setup_s);
    }
}

#[test]
fn seeds_reach_the_cells() {
    let a = run(Workload::OsuColloc, 1, 4, false);
    let b = run(Workload::OsuColloc, 2, 4, false);
    assert_ne!(a.cells, b.cells, "cell seeds derive from the run seed");
}

#[test]
fn traced_miniapp_runs_measure_record_replay_and_walk() {
    let t = run(Workload::MiniappMck, 3, 4, true);
    let l = &t.layers;
    assert_eq!(l["cluster.run_miniapp.calls"], 4.0);
    assert!(l["mpisim.record.ops"] > 0.0);
    assert!(l["workloads.miniapps.walk_s"] > 0.0);
    assert!(l["mpisim.replay_over_walk_x"] > 0.0);
    assert!(t.reference_s > 0.0);
    assert!(t
        .spans
        .iter()
        .any(|s| s.reference && s.name == "mpisim.record"));
}
