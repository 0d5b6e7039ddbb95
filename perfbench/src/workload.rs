//! The benchmark's workloads: cells of the paper's Fig. 7 and Fig. 8 grids, run
//! serially on one thread through the stack's public entry points.
//!
//! A *cell* is one freshly built cluster and the calls made on it. Each
//! cell folds its simulated results into an FNV-1a digest, so a run's
//! outputs can be checked against a committed golden digest and against
//! the other runs of the same seed.

use crate::spans::{self, Tracer};
use cluster::experiment::run_seed;
use cluster::{Cluster, ClusterConfig, OsVariant};
use mpisim::RecordSink;
use simcore::Cycles;
use std::collections::BTreeMap;
use workloads::miniapps::{self, MiniApp};
use workloads::osu::{Collective, OsuConfig};

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7: every collective × OS variant with co-located Hadoop.
    OsuColloc,
    /// Fig. 8: the four mini-apps on McKernel, no co-located job.
    MiniappMck,
    /// Fig. 8's other column: the four mini-apps on Linux+cgroup, no
    /// co-located job, at half their iterations.
    MiniappLinux,
}

/// Node count of every cell: the paper's largest configuration.
pub const PAPER_NODES: u32 = 64;

/// Mini-app iterations are divided by this in `miniapp_linux`, whose
/// every event carries the Linux host model's noise arithmetic.
const LINUX_ITER_DIVISOR: u32 = 2;

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::OsuColloc,
        Workload::MiniappMck,
        Workload::MiniappLinux,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OsuColloc => "osu_colloc",
            Workload::MiniappMck => "miniapp_mck",
            Workload::MiniappLinux => "miniapp_linux",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Result of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellResult {
    /// `workload/…` identifier, stable across seeds.
    pub id: String,
    /// FNV-1a fold of the cell's simulated results.
    pub digest: u64,
    /// False if a call failed or, in the traced run, the reference walk
    /// disagreed with the partitioned replay.
    pub ok: bool,
}

/// Everything one run of a workload measured.
pub struct Outcome {
    /// Host seconds for the whole workload, set-up included, reference
    /// calls excluded.
    pub wall_s: f64,
    /// Host seconds inside the main path's `Cluster::build` calls.
    pub setup_s: f64,
    /// Host seconds in reference calls (traced run only).
    pub reference_s: f64,
    /// Per-cell results, in cell order.
    pub cells: Vec<CellResult>,
    /// Per-layer metrics (meaningful in the traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Recorded spans (traced run only).
    pub spans: Vec<spans::Span>,
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    fn value(self) -> u64 {
        self.0
    }
}

/// Every per-layer metric a run reports (zero where a workload never
/// enters the layer).
const LAYER_METRICS: [&str; 34] = [
    "cluster.build.calls",
    "cluster.build.s",
    "cluster.build.mck_s",
    "cluster.build.linux_s",
    "cluster.build.max_s",
    "cluster.build.rss_growth_mb",
    "cluster.run_osu.calls",
    "cluster.run_osu.s",
    "cluster.run_osu.ns_per_message",
    "cluster.run_osu.linux_cgroup_s",
    "cluster.run_osu.linux_isolcpus_s",
    "cluster.run_osu.mckernel_s",
    "cluster.run_osu.scatter_s",
    "cluster.run_osu.gather_s",
    "cluster.run_osu.reduce_s",
    "cluster.run_osu.allreduce_s",
    "cluster.run_osu.allgather_s",
    "cluster.run_osu.alltoall_s",
    "netsim.messages",
    "netsim.bytes",
    "cluster.run_miniapp.calls",
    "cluster.run_miniapp.s",
    "cluster.run_miniapp.minife_s",
    "cluster.run_miniapp.hpccg_s",
    "cluster.run_miniapp.modylas_s",
    "cluster.run_miniapp.ffvc_s",
    "mpisim.record.s",
    "mpisim.record.ops",
    "mpisim.replay.s",
    "mpisim.replay.ns_per_op",
    "workloads.miniapps.walk_s",
    "mpisim.replay_over_walk_x",
    "span.self.bench_s",
    "span.self.cluster_s",
];

struct Run {
    tracer: Tracer,
    nodes: u32,
    layers: BTreeMap<&'static str, f64>,
    setup_s: f64,
}

impl Run {
    fn add(&mut self, metric: &'static str, v: f64) {
        *self
            .layers
            .get_mut(metric)
            .expect("metric listed in LAYER_METRICS") += v;
    }

    /// Run `f` inside span `name`; returns its result and host seconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Run) -> T) -> (T, f64) {
        let open = self.tracer.open(name, false);
        let out = f(self);
        (out, self.tracer.close(open))
    }

    /// Like [`Run::span`] for a reference call, kept out of `wall_s`.
    fn reference<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Run) -> T) -> T {
        let open = self.tracer.open(name, true);
        let out = f(self);
        self.tracer.close(open);
        out
    }

    /// A main-path `Cluster::build`, counted into `setup_s`.
    fn build(&mut self, cfg: ClusterConfig) -> Cluster {
        let traced = self.tracer.enabled();
        let rss0 = if traced { rss_mb() } else { 0.0 };
        let os = cfg.os;
        let (cluster, s) = self.span("cluster.build", |_| Cluster::build(cfg));
        self.setup_s += s;
        if traced {
            self.add("cluster.build.calls", 1.0);
            self.add("cluster.build.s", s);
            let by_os = match os {
                OsVariant::McKernel => "cluster.build.mck_s",
                _ => "cluster.build.linux_s",
            };
            self.add(by_os, s);
            let max = self.layers.get_mut("cluster.build.max_s").expect("listed");
            *max = max.max(s);
            self.add("cluster.build.rss_growth_mb", (rss_mb() - rss0).max(0.0));
        }
        cluster
    }

    /// Fold the fabric traffic since `before` into `netsim.*`; returns
    /// the messages carried.
    fn traffic(&mut self, c: &Cluster, before: (u64, u64)) -> u64 {
        let (m, b) = c.fabric.stats();
        self.add("netsim.messages", (m - before.0) as f64);
        self.add("netsim.bytes", (b - before.1) as f64);
        m - before.0
    }
}

/// Run `workload` at `nodes` nodes; cell seeds derive from `seed`.
/// With `trace`, spans are recorded and the reference calls run.
pub fn run(workload: Workload, seed: u64, nodes: u32, trace: bool) -> Outcome {
    let mut run = Run {
        tracer: Tracer::new(trace),
        nodes,
        layers: LAYER_METRICS.iter().map(|&m| (m, 0.0)).collect(),
        setup_s: 0.0,
    };
    let start = std::time::Instant::now();
    let cells = match workload {
        Workload::OsuColloc => osu_colloc(&mut run, seed),
        Workload::MiniappMck => miniapp_cells(&mut run, workload, seed, OsVariant::McKernel),
        Workload::MiniappLinux => miniapp_cells(&mut run, workload, seed, OsVariant::LinuxCgroup),
    };
    let total_s = start.elapsed().as_secs_f64();
    if trace {
        finish_layers(&mut run);
    }
    Outcome {
        wall_s: total_s - run.tracer.reference_s(),
        setup_s: run.setup_s,
        reference_s: run.tracer.reference_s(),
        cells,
        layers: run.layers,
        spans: run.tracer.spans().to_vec(),
    }
}

/// Derived per-layer metrics, once every call has been timed.
fn finish_layers(run: &mut Run) {
    let l = &mut run.layers;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    l.insert(
        "cluster.run_osu.ns_per_message",
        ratio(l["cluster.run_osu.s"] * 1e9, l["netsim.messages"]),
    );
    let replay = (l["cluster.run_miniapp.s"] - l["mpisim.record.s"]).max(0.0);
    l.insert("mpisim.replay.s", replay);
    l.insert(
        "mpisim.replay.ns_per_op",
        ratio(replay * 1e9, l["mpisim.record.ops"]),
    );
    l.insert(
        "mpisim.replay_over_walk_x",
        ratio(replay, l["workloads.miniapps.walk_s"]),
    );
    for (layer, s) in spans::self_time_by_layer(run.tracer.spans()) {
        let metric = match layer {
            "bench" => "span.self.bench_s",
            "cluster" => "span.self.cluster_s",
            other => panic!("span layer {other} has no metric"),
        };
        l.insert(metric, s);
    }
}

/// Fig. 7 grid: a fresh cluster with co-located Hadoop per (collective,
/// OS variant), swept over the collective's message sizes.
fn osu_colloc(run: &mut Run, seed: u64) -> Vec<CellResult> {
    let osu_cfg = OsuConfig {
        warmup: 5,
        iters: 8,
        iter_gap: Cycles::from_us(300),
    };
    let mut cells = Vec::new();
    for coll in Collective::all() {
        for os in OsVariant::all() {
            let ci = cells.len();
            run.tracer.set_cell(ci as u32);
            let cfg = ClusterConfig::paper(os)
                .with_nodes(run.nodes)
                .with_insitu()
                .with_seed(run_seed(seed, ci));
            let (cell, _) = run.span("bench.cell", |run| {
                let mut cluster = run.build(cfg);
                let mut digest = Digest::default();
                let mut ok = true;
                let mut at = Cycles::from_ms(1);
                for bytes in coll.message_sizes() {
                    let before = cluster.fabric.stats();
                    let (res, s) = run.span("cluster.run_osu", |_| {
                        cluster.run_osu(coll, bytes, &osu_cfg, at)
                    });
                    let messages = run.traffic(&cluster, before);
                    digest.word(messages);
                    if run.tracer.enabled() {
                        run.add("cluster.run_osu.calls", 1.0);
                        run.add("cluster.run_osu.s", s);
                        run.add(osu_os_metric(os), s);
                        run.add(osu_coll_metric(coll), s);
                    }
                    let Ok(res) = res else {
                        ok = false;
                        break;
                    };
                    for lat in &res.latencies_us {
                        digest.word(lat.to_bits());
                    }
                    digest.word(res.end.raw());
                    // As in Fig. 7: sizes are separated by start-up and
                    // tear-down, sampling other phases of the co-located job.
                    at = res.end + Cycles::from_secs(2);
                }
                let id = format!("osu_colloc/{}/{}", coll_slug(coll), os_slug(os));
                CellResult {
                    id,
                    digest: digest.value(),
                    ok,
                }
            });
            cells.push(cell);
        }
    }
    cells
}

/// The four paper mini-apps on `os`, one fresh cluster per cell, with no
/// co-located job. On Linux the apps run at `1 / LINUX_ITER_DIVISOR` of
/// their iterations.
fn miniapp_cells(run: &mut Run, workload: Workload, seed: u64, os: OsVariant) -> Vec<CellResult> {
    let at = Cycles::from_ms(1);
    let mut cells = Vec::new();
    let mut replayed = Vec::new();
    for (ci, mut app) in MiniApp::paper_suite().into_iter().enumerate() {
        if os != OsVariant::McKernel {
            app.iterations = app.iterations.div_ceil(LINUX_ITER_DIVISOR);
        }
        run.tracer.set_cell(ci as u32);
        let cfg = ClusterConfig::paper(os)
            .with_nodes(run.nodes)
            .with_seed(run_seed(seed, ci));
        let id = format!("{}/{}", workload.name(), app_slug(&app));
        let (cell, makespan) = miniapp_cell(run, id, &cfg, &app, at);
        cells.push(cell);
        replayed.push((cfg, app, makespan));
    }
    if run.tracer.enabled() {
        // After the main path, so that the reference clusters' allocations
        // do not change the allocator state the main path runs in.
        for (ci, (cfg, app, makespan)) in replayed.into_iter().enumerate() {
            run.tracer.set_cell(ci as u32);
            let walked = run.reference("bench.reference", |run| {
                reference_calls(run, &cfg, &app, at)
            });
            // The replayed makespan must equal the reference walk's.
            cells[ci].ok &= makespan.is_some() && makespan == walked;
        }
    }
    cells
}

/// One mini-app cell on the main path; returns it with the makespan.
fn miniapp_cell(
    run: &mut Run,
    id: String,
    cfg: &ClusterConfig,
    app: &MiniApp,
    at: Cycles,
) -> (CellResult, Option<Cycles>) {
    let (out, _) = run.span("bench.cell", |run| {
        let mut cluster = run.build(cfg.clone());
        let before = cluster.fabric.stats();
        let (res, s) = run.span("cluster.run_miniapp", |_| cluster.run_miniapp(app, at));
        let mut digest = Digest::default();
        digest.word(run.traffic(&cluster, before));
        if run.tracer.enabled() {
            run.add("cluster.run_miniapp.calls", 1.0);
            run.add("cluster.run_miniapp.s", s);
            run.add(app_metric(app), s);
        }
        if let Ok(t) = &res {
            digest.word(t.raw());
        }
        let ok = res.is_ok();
        (
            CellResult {
                id,
                digest: digest.value(),
                ok,
            },
            res.ok(),
        )
    });
    out
}

/// The traced run's reference calls on identically built clusters:
/// record-only (`mpisim.record`) and the global-wheel walk
/// (`workloads.miniapps.walk`). Returns the walk's makespan.
fn reference_calls(
    run: &mut Run,
    cfg: &ClusterConfig,
    app: &MiniApp,
    at: Cycles,
) -> Option<Cycles> {
    let p = run.nodes as usize;
    let (mut rec, _) = run.span("cluster.build", |_| Cluster::build(cfg.clone()));
    rec.set_mem_intensity(app.mem_intensity);
    let mut sink = RecordSink::new(p);
    let (recorded, s) = run.span("mpisim.record", |_| {
        let mut ctx = rec.ctx();
        ctx.sink = Some(&mut sink);
        miniapps::run_clocks(&mut ctx, app, p, at)
    });
    drop(rec);
    run.add("mpisim.record.s", s);
    run.add("mpisim.record.ops", sink.num_ops() as f64);
    let (mut walk, _) = run.span("cluster.build", |_| Cluster::build(cfg.clone()));
    walk.set_mem_intensity(app.mem_intensity);
    let (walked, s) = run.span("workloads.miniapps.walk", |_| {
        miniapps::run(&mut walk.ctx(), app, p, at)
    });
    run.add("workloads.miniapps.walk_s", s);
    recorded.ok().and(walked.ok())
}

fn osu_os_metric(os: OsVariant) -> &'static str {
    match os {
        OsVariant::LinuxCgroup => "cluster.run_osu.linux_cgroup_s",
        OsVariant::LinuxCgroupIsolcpus => "cluster.run_osu.linux_isolcpus_s",
        OsVariant::McKernel => "cluster.run_osu.mckernel_s",
    }
}

fn os_slug(os: OsVariant) -> &'static str {
    osu_os_metric(os)
        .strip_prefix("cluster.run_osu.")
        .and_then(|m| m.strip_suffix("_s"))
        .expect("metric name pattern")
}

fn osu_coll_metric(coll: Collective) -> &'static str {
    match coll {
        Collective::Scatter => "cluster.run_osu.scatter_s",
        Collective::Gather => "cluster.run_osu.gather_s",
        Collective::Reduce => "cluster.run_osu.reduce_s",
        Collective::Allreduce => "cluster.run_osu.allreduce_s",
        Collective::Allgather => "cluster.run_osu.allgather_s",
        Collective::Alltoall => "cluster.run_osu.alltoall_s",
    }
}

fn coll_slug(coll: Collective) -> &'static str {
    osu_coll_metric(coll)
        .strip_prefix("cluster.run_osu.")
        .and_then(|m| m.strip_suffix("_s"))
        .expect("metric name pattern")
}

fn app_metric(app: &MiniApp) -> &'static str {
    match app.name {
        "miniFE" => "cluster.run_miniapp.minife_s",
        "HPC-CG" => "cluster.run_miniapp.hpccg_s",
        "Modylas" => "cluster.run_miniapp.modylas_s",
        "FFVC" => "cluster.run_miniapp.ffvc_s",
        other => panic!("mini-app {other} has no metric"),
    }
}

fn app_slug(app: &MiniApp) -> &'static str {
    app_metric(app)
        .strip_prefix("cluster.run_miniapp.")
        .and_then(|m| m.strip_suffix("_s"))
        .expect("metric name pattern")
}

/// Current resident set, MiB (0 where `/proc` is unavailable).
fn rss_mb() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: f64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    pages * 4096.0 / f64::from(1u32 << 20)
}
