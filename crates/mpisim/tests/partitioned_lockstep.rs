//! Lock-step equivalence: every collective entry point, walked on the
//! shared global-wheel fabric vs recorded and replayed on the
//! partitioned engine, over randomized small topologies.
//!
//! For each scenario the final per-rank clocks, fabric traffic counters,
//! reliable-protocol counters and registration-cache stats must be
//! *identical* at every worker-thread count, and the replay value logs
//! (the raw per-node event trace) must fold to the same digest across
//! thread counts. Both drain paths are forced in turn — every window
//! inline on the coordinator, and every window fanned out to helper
//! threads — so the engine's cost gate cannot hide either one.

use mpisim::collectives::{allgather, allreduce, alltoall, barrier, tree, Ctx, Recorder};
use mpisim::host::IdealHost;
use mpisim::pcoll::{replay, NodeSeat, ReplayConfig};
use mpisim::record::{decode, resolve, RecordSink};
use mpisim::regcache::RegCache;
use mpisim::{P2pParams, RankFailure};
use netsim::reliable::ReliableFabric;
use netsim::LinkParams;
use simcore::partition::{with_drain, Drain};
use simcore::{Cycles, StreamRng};
use std::sync::Arc;

const OPS: usize = 15;

/// Dispatch entry point `op` (0..15). Ops 0..4 are rooted trees.
fn run_op<H: mpisim::HostModel>(
    ctx: &mut Ctx<'_, H>,
    op: usize,
    p: usize,
    root: usize,
    bytes: u64,
    start: &[Cycles],
) -> Result<Vec<Cycles>, RankFailure> {
    match op {
        0 => tree::scatter(ctx, p, root, bytes, start),
        1 => tree::gather(ctx, p, root, bytes, start),
        2 => tree::reduce(ctx, p, root, bytes, start),
        3 => tree::bcast(ctx, p, root, bytes, start),
        4 => allreduce::allreduce(ctx, p, bytes, start),
        5 => allreduce::allreduce_rd(ctx, p, bytes, start),
        6 => allreduce::allreduce_rabenseifner(ctx, p, bytes, start),
        7 => allgather::allgather(ctx, p, bytes, start),
        8 => allgather::allgather_rd(ctx, p, bytes, start),
        9 => allgather::allgather_ring(ctx, p, bytes, start),
        10 => alltoall::alltoall(ctx, p, bytes, start),
        11 => alltoall::alltoall_bruck(ctx, p, bytes, start),
        12 => alltoall::alltoall_pairwise(ctx, p, bytes, start),
        13 => barrier::barrier(ctx, p, start),
        14 => barrier::reduce_scatter(ctx, p, bytes, start),
        _ => unreachable!(),
    }
}

fn needs_pow2(op: usize) -> bool {
    matches!(op, 5 | 6 | 8 | 14)
}

fn caches(p: usize) -> Vec<RegCache> {
    (0..p).map(|i| RegCache::new(StreamRng::root(42).stream("rank", i as u64))).collect()
}

struct Scenario {
    op: usize,
    p: usize,
    root: usize,
    bytes: u64,
    hybrid_aware: bool,
    start: Vec<Cycles>,
}

fn draw_scenario(rng: &mut StreamRng, op: usize) -> Scenario {
    let mut p = [2usize, 3, 4, 5, 6, 8][rng.range_u64(0, 6) as usize];
    if needs_pow2(op) && !p.is_power_of_two() {
        p = p.next_power_of_two();
    }
    // Spans eager-control, eager-bulk (total >= 4096) and rendezvous.
    let bytes = [8u64, 700, 2048, 5 << 10, 20 << 10, 70 << 10][rng.range_u64(0, 6) as usize];
    let root = rng.range_u64(0, p as u64) as usize;
    let hybrid_aware = rng.chance(0.5);
    let start: Vec<Cycles> =
        (0..p).map(|_| Cycles::from_ns(rng.range_u64(0, 50_000))).collect();
    Scenario { op, p, root, bytes, hybrid_aware, start }
}

struct WalkResult {
    clocks: Vec<Cycles>,
    traffic: (u64, u64),
    reliable: netsim::ReliableStats,
    cache_stats: Vec<(u64, u64)>,
}

fn walk(s: &Scenario) -> WalkResult {
    let mut fabric = ReliableFabric::new(s.p, LinkParams::fdr_infiniband());
    let mut host = IdealHost::new();
    let params = P2pParams::default();
    let mut rcs = caches(s.p);
    let mut rec: Recorder = None;
    let mut ctx = Ctx {
        hybrid_aware: s.hybrid_aware,
        fabric: &mut fabric,
        host: &mut host,
        params: &params,
        regcaches: &mut rcs,
        recorder: &mut rec,
        reduce_per_kib: Cycles::from_ns(350),
        churn: 0.0,
        rank_map: None,
        sink: None,
    };
    let clocks = run_op(&mut ctx, s.op, s.p, s.root, s.bytes, &s.start).expect("fault-free");
    WalkResult {
        clocks,
        traffic: fabric.stats(),
        reliable: fabric.reliable_stats(),
        cache_stats: rcs.iter().map(RegCache::stats).collect(),
    }
}

/// Record once, replay at `threads`; returns resolved clocks, merged
/// fabric state and a digest of the raw per-node value logs.
fn record_replay(s: &Scenario, threads: usize) -> (WalkResult, u64) {
    let mut fabric = ReliableFabric::new(s.p, LinkParams::fdr_infiniband());
    let mut host = IdealHost::new();
    let params = P2pParams::default();
    let mut rcs = caches(s.p);
    let mut rec: Recorder = None;
    let mut sink = RecordSink::new(s.p);
    let sym = {
        let mut ctx = Ctx {
            hybrid_aware: s.hybrid_aware,
            fabric: &mut fabric,
            host: &mut host,
            params: &params,
            regcaches: &mut rcs,
            recorder: &mut rec,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: Some(&mut sink),
        };
        run_op(&mut ctx, s.op, s.p, s.root, s.bytes, &s.start).expect("recording never fails")
    };
    let cfg = ReplayConfig {
        params,
        link: *fabric.params(),
        policy: *fabric.policy(),
        lookahead: fabric.lookahead(),
        view: Arc::new(fabric.partition_view().expect("fault-free")),
    };
    let seats: Vec<NodeSeat<IdealHost>> = fabric
        .detach_ends()
        .into_iter()
        .zip(caches(s.p))
        .map(|(end, regcache)| NodeSeat { host: IdealHost::new(), regcache, end })
        .collect();
    let (res, seats) = replay(sink.into_ops(), seats, &cfg, threads);
    let logs = res.expect("fault-free replay");
    let clocks: Vec<Cycles> = sym
        .iter()
        .enumerate()
        .map(|(r, &tok)| resolve(decode(tok, r), &logs[r]))
        .collect();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for log in &logs {
        for v in log {
            digest = (digest ^ v.raw()).wrapping_mul(0x100_0000_01b3);
        }
    }
    let cache_stats = seats.iter().map(|st| st.regcache.stats()).collect();
    fabric.absorb_ends(seats.into_iter().map(|st| st.end).collect());
    (
        WalkResult {
            clocks,
            traffic: fabric.stats(),
            reliable: fabric.reliable_stats(),
            cache_stats,
        },
        digest,
    )
}

/// The two forced drain paths.
const DRAINS: [Drain; 2] = [Drain::Inline, Drain::FanOut];

#[test]
fn every_entry_point_replays_identically_at_all_thread_counts() {
    let mut rng = StreamRng::root(0xD1CE);
    for case in 0..45 {
        let op = case % OPS;
        let s = draw_scenario(&mut rng, op);
        let want = walk(&s);
        let mut digests = Vec::new();
        for (drain, threads) in DRAINS
            .iter()
            .flat_map(|&d| [1usize, 2, 4, 8].map(|t| (d, t)))
        {
            let (got, digest) = with_drain(drain, || record_replay(&s, threads));
            let tag = format!(
                "op {} p {} root {} bytes {} hybrid {} threads {threads} {drain:?}",
                s.op, s.p, s.root, s.bytes, s.hybrid_aware
            );
            assert_eq!(got.clocks, want.clocks, "final clocks: {tag}");
            assert_eq!(got.traffic, want.traffic, "traffic counters: {tag}");
            assert_eq!(got.reliable, want.reliable, "protocol counters: {tag}");
            assert_eq!(got.cache_stats, want.cache_stats, "regcache stats: {tag}");
            digests.push(digest);
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "trace digests differ across thread counts or drain paths: op {} p {}",
            s.op,
            s.p
        );
    }
}

/// Chained collectives reuse one fabric/cache/host state: the replay
/// must carry warm state across operations exactly like the walk.
#[test]
fn chained_operations_carry_warm_state() {
    let p = 8;
    let params = P2pParams::default();
    let sizes = [70 << 10, 20 << 10, 8u64];
    // Walk the chain.
    let mut fabric = ReliableFabric::new(p, LinkParams::fdr_infiniband());
    let mut host = IdealHost::new();
    let mut rcs = caches(p);
    let mut rec: Recorder = None;
    let mut clocks = vec![Cycles::ZERO; p];
    for &b in &sizes {
        let mut ctx = Ctx {
            hybrid_aware: false,
            fabric: &mut fabric,
            host: &mut host,
            params: &params,
            regcaches: &mut rcs,
            recorder: &mut rec,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: None,
        };
        clocks = allreduce::allreduce(&mut ctx, p, b, &clocks).expect("fault-free");
    }
    // Record the same chain in one sink, then replay once.
    let mut rfab = ReliableFabric::new(p, LinkParams::fdr_infiniband());
    let mut rhost = IdealHost::new();
    let mut rrcs = caches(p);
    let mut rrec: Recorder = None;
    let mut sink = RecordSink::new(p);
    let mut sym = vec![Cycles::ZERO; p];
    for &b in &sizes {
        let mut ctx = Ctx {
            hybrid_aware: false,
            fabric: &mut rfab,
            host: &mut rhost,
            params: &params,
            regcaches: &mut rrcs,
            recorder: &mut rrec,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: Some(&mut sink),
        };
        sym = allreduce::allreduce(&mut ctx, p, b, &sym).expect("recording");
    }
    let cfg = ReplayConfig {
        params,
        link: *rfab.params(),
        policy: *rfab.policy(),
        lookahead: rfab.lookahead(),
        view: Arc::new(rfab.partition_view().expect("fault-free")),
    };
    // The walk's take_stats window: what any thread count must report.
    let cumulative = fabric.stats();
    let rel_cumulative = fabric.reliable_stats();
    let walk_window = fabric.take_stats();
    let walk_rel_window = fabric.take_reliable_stats();
    assert_eq!(walk_window, cumulative, "first window covers everything");
    for (drain, threads) in DRAINS.iter().flat_map(|&d| [1usize, 4].map(|t| (d, t))) {
        let mut fab2 = ReliableFabric::new(p, LinkParams::fdr_infiniband());
        let seats: Vec<NodeSeat<IdealHost>> = fab2
            .detach_ends()
            .into_iter()
            .zip(caches(p))
            .map(|(end, regcache)| NodeSeat { host: IdealHost::new(), regcache, end })
            .collect();
        let (res, seats) = with_drain(drain, || {
            replay(sink.clone().into_ops(), seats, &cfg, threads)
        });
        let logs = res.expect("fault-free replay");
        for (r, (&tok, &want)) in sym.iter().zip(&clocks).enumerate() {
            assert_eq!(resolve(decode(tok, r), &logs[r]), want, "rank {r} at {threads} threads");
        }
        for (r, (st, w)) in seats.iter().zip(&rcs).enumerate() {
            assert_eq!(st.regcache.stats(), w.stats(), "cache stats rank {r}");
        }
        fab2.absorb_ends(seats.into_iter().map(|st| st.end).collect());
        assert_eq!(fab2.stats(), cumulative, "cumulative stats at {threads} threads");
        assert_eq!(fab2.reliable_stats(), rel_cumulative);
        // The index-ordered merge keeps take_stats windows thread-count
        // invariant: the post-replay window equals the walk's.
        assert_eq!(fab2.take_stats(), walk_window, "stats window at {threads} threads");
        assert_eq!(fab2.take_reliable_stats(), walk_rel_window);
        assert_eq!(fab2.take_stats(), (0, 0), "window resets");
    }
}
