//! The assembled cluster and its workload entry points.

use crate::config::ClusterConfig;
use crate::host::{ClusterHost, NodeHost};
use crate::node::NodeRuntime;
use hlwk_core::ihk::partition::PartitionError;
use mpisim::collectives::{Ctx, Recorder};
use mpisim::p2p::P2pParams;
use mpisim::record::{decode, resolve};
use mpisim::regcache::RegCache;
use mpisim::{replay, NodeSeat, RankFailure, RecordSink, ReplayConfig};
use netsim::reliable::CrashTrigger;
use netsim::{LinkParams, ReliableFabric};
use simcore::fault::{DomainFaultPlan, DomainTopology};
use simcore::{par, Cycles, StreamRng};
use std::sync::Arc;
use workloads::miniapps::MiniApp;
use workloads::osu::{self, Collective, OsuConfig, OsuResult};
use workloads::{fwq, miniapps};

/// Worker threads for the partitioned engine: `HLWK_ENGINE_THREADS`,
/// defaulting to the shared pool size — or to 1 on a worker of a pool
/// wider than one, whose sibling cells already occupy the other cores.
pub fn engine_threads() -> usize {
    std::env::var("HLWK_ENGINE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            if par::is_pool_worker() {
                1
            } else {
                par::pool_size()
            }
        })
}

/// A fully built cluster: nodes + InfiniBand fabric + MPI state.
pub struct Cluster {
    /// The configuration it was built from.
    pub cfg: ClusterConfig,
    /// Node runtimes, wrapped as the MPI host model.
    pub host: ClusterHost,
    /// The InfiniBand fabric (HPC traffic only; Hadoop rides GbE, kept
    /// separate exactly as in the paper), wrapped in the reliable-delivery
    /// layer. With link faults disabled it is an exact passthrough.
    pub fabric: ReliableFabric,
    /// Failure-domain layout (node → rack → pod).
    pub topo: DomainTopology,
    /// The correlated-fault schedule, if domain faults were enabled.
    /// Its events are already applied to the fabric at build time.
    pub domain_plan: Option<DomainFaultPlan>,
    params: P2pParams,
    regcaches: Vec<RegCache>,
    recorder: Recorder,
    reduce_per_kib: Cycles,
}

impl Cluster {
    /// Build every node and the fabric for `cfg`.
    pub fn build(cfg: ClusterConfig) -> Cluster {
        let rng = StreamRng::root(cfg.seed);
        let nodes: Vec<NodeRuntime> = (0..cfg.nodes)
            .map(|i| NodeRuntime::build(&cfg, i, &rng))
            .collect();
        let regcaches = (0..cfg.nodes)
            .map(|i| RegCache::new(rng.stream("regcache", u64::from(i))))
            .collect();
        // Disabled link faults take the `new` path: no fault RNG stream
        // is even constructed, preserving bit-identical fault-free runs.
        let mut fabric = if cfg.link_faults.enabled {
            ReliableFabric::with_faults(
                cfg.nodes as usize,
                LinkParams::fdr_infiniband(),
                cfg.link_faults,
                &rng,
            )
        } else {
            ReliableFabric::new(cfg.nodes as usize, LinkParams::fdr_infiniband())
        };
        if let Some(crash) = cfg.node_crash {
            fabric.kill_node(crash.node, crash.trigger);
        }
        // Correlated domain faults follow the same discipline: a
        // disabled config derives no per-domain streams at all, and
        // deterministic injected events are RNG-free either way.
        let topo = cfg.topology();
        let domain_plan = cfg.domain_faults.enabled.then(|| {
            let plan = DomainFaultPlan::new(cfg.domain_faults, topo, &rng);
            for ev in plan.events() {
                fabric.apply_domain_event(&topo, ev);
            }
            plan
        });
        for ev in &cfg.domain_events {
            fabric.apply_domain_event(&topo, ev);
        }
        Cluster {
            fabric,
            topo,
            domain_plan,
            host: ClusterHost { nodes },
            params: P2pParams::default(),
            regcaches,
            recorder: None,
            reduce_per_kib: Cycles::from_ns(350),
            cfg,
        }
    }

    /// Set the HPC workload's memory intensity on every node.
    pub fn set_mem_intensity(&mut self, mi: f64) {
        for n in &mut self.host.nodes {
            n.mem_intensity = mi;
        }
    }

    /// Borrow the MPI execution context.
    pub fn ctx(&mut self) -> Ctx<'_, ClusterHost> {
        Ctx {
            hybrid_aware: self.cfg.mpi_hybrid_aware,
            fabric: &mut self.fabric,
            host: &mut self.host,
            params: &self.params,
            regcaches: &mut self.regcaches,
            recorder: &mut self.recorder,
            reduce_per_kib: self.reduce_per_kib,
            churn: 0.0,
            rank_map: None,
            sink: None,
        }
    }

    /// Borrow an MPI context for a shrunk communicator: `rank_map[r]` is
    /// the surviving node behind communicator rank `r`.
    pub fn ctx_with_ranks<'m>(&'m mut self, rank_map: &'m [usize]) -> Ctx<'m, ClusterHost> {
        Ctx {
            rank_map: Some(rank_map),
            sink: None,
            ..self.ctx()
        }
    }

    /// Online LWK width (uniform across nodes — the elastic controller
    /// always resizes the whole allocation in lock-step).
    pub fn lwk_width(&self) -> usize {
        self.host.nodes[0].lwk_online_width()
    }

    /// Elastic shrink on every node: release one LWK core per node back
    /// to Linux through the real IHK path, then audit that each released
    /// core left no TLB entries, cached frames, run queue, or delegator
    /// state behind. Returns the released cores (one per node). On
    /// `CoreBusy` nothing is released on any node — the caller drains
    /// offloads and retries.
    pub fn shrink_lwk_all(&mut self) -> Result<Vec<hwmodel::cpu::CoreId>, PartitionError> {
        // Probe first so a busy node cannot leave the cluster half-shrunk.
        for n in &self.host.nodes {
            if n.linux.delegator.in_flight() > 0 {
                let online = n.mck.as_ref().expect("LWK node").online_cores();
                return Err(PartitionError::CoreBusy(*online.last().expect("core")));
            }
        }
        let mut released = Vec::with_capacity(self.host.nodes.len());
        for n in &mut self.host.nodes {
            let core = n.shrink_lwk_core()?;
            n.audit_released_core(core)
                .unwrap_or_else(|e| panic!("release audit failed: {e}"));
            released.push(core);
        }
        Ok(released)
    }

    /// Elastic expand on every node: regrow one released core per node
    /// (LIFO against [`Cluster::shrink_lwk_all`]).
    pub fn grow_lwk_all(&mut self) -> Result<Vec<hwmodel::cpu::CoreId>, PartitionError> {
        let mut grown = Vec::with_capacity(self.host.nodes.len());
        for n in &mut self.host.nodes {
            grown.push(n.grow_lwk_core()?);
        }
        Ok(grown)
    }

    /// Arm a fail-stop node crash (fabric-level: the node stops ACKing).
    pub fn kill_node(&mut self, node: usize, trigger: CrashTrigger) {
        self.fabric.kill_node(node, trigger);
    }

    /// Conservative lookahead for windowed parallel simulation of this
    /// cluster: one window of the partitioned engine per node. Delegates
    /// to [`ReliableFabric::lookahead`], so it is the full LogGP
    /// `send_overhead + latency` fault-free and shrinks to the bare wire
    /// latency once link faults, domain events, or node crashes are
    /// armed (see `DESIGN.md` D12).
    pub fn lookahead(&self) -> Cycles {
        self.fabric.lookahead()
    }

    /// Run the FWQ probe on node 0's first application core. FWQ is pure
    /// ALU work (no memory stretch). Returns per-quantum latencies.
    pub fn fwq(&mut self, quantum: Cycles, duration: Cycles, start: Cycles) -> Vec<u64> {
        let node = &mut self.host.nodes[0];
        let saved = node.mem_intensity;
        node.mem_intensity = 0.0;
        let samples = fwq::run_for(quantum, duration, start, |at, w| {
            node.exec_app_thread(0, at, w)
        });
        node.mem_intensity = saved;
        samples
    }

    /// Measure one OSU collective cell.
    pub fn run_osu(
        &mut self,
        coll: Collective,
        bytes: u64,
        cfg: &OsuConfig,
        at: Cycles,
    ) -> Result<OsuResult, RankFailure> {
        let p = self.cfg.nodes as usize;
        osu::measure(&mut self.ctx(), coll, p, bytes, cfg, at)
    }

    /// Run one mini-app; returns its execution time. A node failure the
    /// fabric cannot hide surfaces as a typed [`RankFailure`] (see
    /// [`crate::recovery`] for the job-level policies on top).
    ///
    /// Fault-free runs execute on the partitioned engine: the walk is
    /// recorded once with symbolic clocks, then replayed with one
    /// partition per node (at [`engine_threads`] width). The replay is
    /// value-identical to the global-wheel walk at any thread count, so
    /// this changes wall-clock time only. With faults armed the
    /// conservative lookahead collapses and the walk runs directly.
    pub fn run_miniapp(&mut self, app: &MiniApp, at: Cycles) -> Result<Cycles, RankFailure> {
        self.set_mem_intensity(app.mem_intensity);
        let p = self.cfg.nodes as usize;
        if self.fabric.partition_view().is_some() {
            let mut sink = RecordSink::new(p);
            let sym = {
                let mut ctx = self.ctx();
                ctx.sink = Some(&mut sink);
                miniapps::run_clocks(&mut ctx, app, p, at)
                    .expect("recording is oblivious to faults")
            };
            let finals = self.replay_recorded(sink, &sym)?;
            return Ok(*finals.iter().max().expect("p >= 1") - at);
        }
        miniapps::run(&mut self.ctx(), app, p, at)
    }

    /// One BSP step of `app` for the recovery layer: `ranks[r]` is the
    /// fabric node behind communicator rank `r`. On the full, unshrunk
    /// communicator with no faults armed the step runs on the
    /// partitioned engine exactly like [`Cluster::run_miniapp`]; a
    /// shrunk communicator or armed faults take the global-wheel walk.
    pub fn step_miniapp(
        &mut self,
        app: &MiniApp,
        quantum: Cycles,
        ranks: &[usize],
        clocks: &mut Vec<Cycles>,
    ) -> Result<(), RankFailure> {
        let identity = ranks.len() == self.cfg.nodes as usize
            && ranks.iter().enumerate().all(|(r, &n)| r == n);
        if identity && self.fabric.partition_view().is_some() {
            let mut sink = RecordSink::new(ranks.len());
            let mut sym = clocks.clone();
            {
                let mut ctx = self.ctx();
                ctx.sink = Some(&mut sink);
                miniapps::step(&mut ctx, app, quantum, &mut sym)
                    .expect("recording is oblivious to faults");
            }
            *clocks = self.replay_recorded(sink, &sym)?;
            return Ok(());
        }
        miniapps::step(&mut self.ctx_with_ranks(ranks), app, quantum, clocks)
    }

    /// Replay a recorded walk on the partitioned engine and resolve the
    /// symbolic clocks `sym` against the per-node value logs. Node
    /// state (host runtimes, registration caches, fabric ends) moves
    /// into per-partition seats for the replay and is merged back in
    /// node-index order either way, so on success the cluster is in
    /// exactly the state the global-wheel walk would have left.
    fn replay_recorded(
        &mut self,
        sink: RecordSink,
        sym: &[Cycles],
    ) -> Result<Vec<Cycles>, RankFailure> {
        let cfg = ReplayConfig {
            params: self.params,
            link: *self.fabric.params(),
            policy: *self.fabric.policy(),
            lookahead: self.fabric.lookahead(),
            view: Arc::new(self.fabric.partition_view().expect("checked by caller")),
        };
        let nodes = std::mem::take(&mut self.host.nodes);
        let caches = std::mem::take(&mut self.regcaches);
        let seats: Vec<NodeSeat<NodeHost>> = nodes
            .into_iter()
            .zip(caches)
            .zip(self.fabric.detach_ends())
            .map(|((node, regcache), end)| NodeSeat { host: NodeHost(node), regcache, end })
            .collect();
        let (res, seats) = replay(sink.into_ops(), seats, &cfg, engine_threads());
        let mut ends = Vec::with_capacity(seats.len());
        for seat in seats {
            self.host.nodes.push(seat.host.0);
            self.regcaches.push(seat.regcache);
            ends.push(seat.end);
        }
        self.fabric.absorb_ends(ends);
        let logs = res?;
        Ok(sym
            .iter()
            .enumerate()
            .map(|(r, &tok)| resolve(decode(tok, r), &logs[r]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OsVariant;

    fn small(os: OsVariant, nodes: u32, insitu: bool) -> Cluster {
        let mut cfg = ClusterConfig::paper(os).with_nodes(nodes).with_seed(123);
        cfg.insitu = insitu;
        cfg.horizon_secs = 20;
        Cluster::build(cfg)
    }

    #[test]
    fn fwq_flat_on_mckernel_noisy_on_linux() {
        let mut mck = small(OsVariant::McKernel, 1, false);
        let s = mck.fwq(fwq::DEFAULT_QUANTUM, Cycles::from_ms(50), Cycles::from_us(1));
        assert!(s.iter().all(|&x| x == fwq::DEFAULT_QUANTUM.raw()));
        let mut lin = small(OsVariant::LinuxCgroup, 1, false);
        let s = lin.fwq(fwq::DEFAULT_QUANTUM, Cycles::from_ms(50), Cycles::from_us(1));
        assert!(s.iter().any(|&x| x > fwq::DEFAULT_QUANTUM.raw()));
    }

    #[test]
    fn osu_runs_on_both_stacks_and_mckernel_is_steadier() {
        let cfg = OsuConfig {
            warmup: 2,
            iters: 8,
            iter_gap: Cycles::from_us(300),
        };
        let mut lin = small(OsVariant::LinuxCgroup, 4, false);
        let lr = lin
            .run_osu(Collective::Allreduce, 1024, &cfg, Cycles::from_ms(1))
            .expect("fault-free");
        let mut mck = small(OsVariant::McKernel, 4, false);
        let mr = mck
            .run_osu(Collective::Allreduce, 1024, &cfg, Cycles::from_ms(1))
            .expect("fault-free");
        let spread = |v: &[f64]| {
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            let max = v.iter().cloned().fold(0.0, f64::max);
            (max - min) / (v.iter().sum::<f64>() / v.len() as f64)
        };
        assert!(
            spread(&mr.latencies_us) <= spread(&lr.latencies_us) + 1e-9,
            "mck {:?} vs linux {:?}",
            mr.latencies_us,
            lr.latencies_us
        );
    }

    #[test]
    fn miniapp_runs_end_to_end() {
        let app = MiniApp {
            iterations: 5,
            ..MiniApp::hpccg()
        };
        let mut c = small(OsVariant::McKernel, 4, false);
        let t = c.run_miniapp(&app, Cycles::from_ms(1)).expect("fault-free");
        // 5 iterations x ~0.33 s = ~1.6 s.
        let secs = t.as_secs_f64();
        assert!((1.0..3.0).contains(&secs), "{secs}");
    }

    #[test]
    fn insitu_hurts_cgroup_more_than_mckernel() {
        // Hadoop interference is phased, so a single short run can land in
        // a quiet window; aggregate over seeds.
        let app = MiniApp {
            iterations: 10,
            ..MiniApp::ffvc()
        };
        let run_one = |os: OsVariant, insitu: bool, seed: u64| {
            let mut cfg = ClusterConfig::paper(os).with_nodes(2).with_seed(seed);
            cfg.insitu = insitu;
            cfg.horizon_secs = 20;
            Cluster::build(cfg)
                .run_miniapp(&app, Cycles::from_ms(1))
                .expect("fault-free")
                .as_secs_f64()
        };
        let seeds = [11u64, 22, 33, 44];
        let avg = |os: OsVariant, insitu: bool| {
            seeds.iter().map(|&s| run_one(os, insitu, s)).sum::<f64>() / seeds.len() as f64
        };
        let t_quiet = avg(OsVariant::LinuxCgroup, false);
        let t_noisy = avg(OsVariant::LinuxCgroup, true);
        let t_mck = avg(OsVariant::McKernel, true);
        assert!(t_noisy > t_quiet * 1.03, "quiet {t_quiet} noisy {t_noisy}");
        let mck_slowdown = t_mck / t_quiet;
        let cgroup_slowdown = t_noisy / t_quiet;
        assert!(
            mck_slowdown < cgroup_slowdown,
            "mck {mck_slowdown} vs cgroup {cgroup_slowdown}"
        );
    }

    #[test]
    fn lookahead_tracks_fault_arming() {
        use netsim::LinkParams;
        let quiet = small(OsVariant::McKernel, 4, false);
        assert_eq!(quiet.lookahead(), LinkParams::fdr_infiniband().lookahead());
        let mut armed = small(OsVariant::McKernel, 4, false);
        armed.kill_node(2, CrashTrigger::AfterSends(5));
        assert_eq!(armed.lookahead(), LinkParams::fdr_infiniband().latency);
        assert!(armed.lookahead() >= Cycles(1));
    }

    /// The partitioned engine must be value-identical to the
    /// global-wheel walk with *real* stateful node runtimes — Linux
    /// scheduler noise, busy-phase DMA stretch, offloaded MR
    /// registration — not just the ideal host the mpisim suite uses.
    #[test]
    fn partitioned_miniapp_matches_global_wheel_walk() {
        let app = MiniApp {
            iterations: 4,
            ..MiniApp::hpccg()
        };
        for os in [OsVariant::McKernel, OsVariant::LinuxCgroup] {
            // Walk on the shared fabric, bypassing the partitioned route.
            let mut walk = small(os, 4, true);
            walk.set_mem_intensity(app.mem_intensity);
            let t_walk = miniapps::run(&mut walk.ctx(), &app, 4, Cycles::from_ms(1))
                .expect("fault-free");
            // The public entry point records + replays partitioned.
            let mut part = small(os, 4, true);
            let t_part = part.run_miniapp(&app, Cycles::from_ms(1)).expect("fault-free");
            assert_eq!(t_part, t_walk, "{os:?} makespan");
            assert_eq!(part.fabric.stats(), walk.fabric.stats(), "{os:?} traffic");
            assert_eq!(
                part.fabric.reliable_stats(),
                walk.fabric.reliable_stats(),
                "{os:?} protocol counters"
            );
            // Node state converged too: a *second* (walked) step from
            // both clusters stays identical.
            let t2_walk = miniapps::run(&mut walk.ctx(), &app, 4, Cycles::from_ms(900))
                .expect("fault-free");
            let mut ctx = part.ctx();
            let t2_part =
                miniapps::run(&mut ctx, &app, 4, Cycles::from_ms(900)).expect("fault-free");
            assert_eq!(t2_part, t2_walk, "{os:?} post-replay node state");
        }
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = || {
            let mut c = small(OsVariant::LinuxCgroup, 2, true);
            c.fwq(fwq::DEFAULT_QUANTUM, Cycles::from_ms(20), Cycles::from_us(1))
        };
        assert_eq!(run(), run());
    }
}
