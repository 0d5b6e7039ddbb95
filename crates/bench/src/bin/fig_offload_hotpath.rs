//! Offload hot-path microbenchmarks — the tracked perf baseline.
//!
//! Unlike the `fig*` binaries (which regenerate paper figures in
//! *modeled* time), this binary measures **host wall-clock** cost of the
//! structures the offload path hammers: the end-to-end offload round
//! trip (interleaved with the promoted in-LWK read it is compared
//! against, so the bypass-floor ratio is ambient-burst-proof), address
//! translation, the IKC channel itself, and the Linux host model's cost
//! per short application quantum on a Hadoop-loaded core. The numbers land in
//! `BENCH_offload.json` so every future PR is held to a perf trajectory
//! (CI compares against the committed baseline with a 2x tolerance —
//! see `scripts/ci.sh --bench-smoke`); `fig_bypass` merges the rest of
//! the bypass sweep into the same file.
//!
//! Knobs:
//! * `HLWK_BENCH_ITERS` — iterations per metric (default 20000);
//! * `HLWK_BENCH_OUT`   — output JSON path (default `BENCH_offload.json`);
//! * `--check <path>`   — compare a fresh run against a committed
//!   baseline instead of writing one; exits non-zero past 2x.

use cluster::{node::NodeRuntime, ClusterConfig, OsVariant};
use hlwk_core::abi::Sysno;
use hlwk_core::ihk::ikc::{IkcChannel, MsgKind};
use hlwk_core::mck::mem::pagetable::{PageTable, PteFlags};
use hlwk_core::mck::mem::tlb::SoftTlb;
use hlwk_core::mck::syscall::{BypassConfig, SyscallRequest};
use hwmodel::addr::{PhysAddr, VirtAddr, PAGE_SIZE, PAGE_SIZE_2M};
use simcore::{Cycles, StreamRng};
use std::hint::black_box;
use std::time::Instant;

/// Tolerance for the CI regression gate: a metric may regress up to
/// this factor against the committed baseline before CI fails.
const REGRESSION_TOLERANCE: f64 = 2.0;

/// Floor for the profile-guided bypass: a promoted read must beat the
/// full offload round trip by at least this factor, with the MPK-style
/// protection domains armed (their entry/exit bookkeeping is part of
/// the measured cost).
const BYPASS_FLOOR: f64 = 3.0;

fn iters() -> u64 {
    std::env::var("HLWK_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000)
}

/// Best-of-3 wall-clock nanoseconds per call of `f` over `n` calls.
fn measure<F: FnMut()>(n: u64, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / n as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Best-of-5 per side with the trials interleaved a, b, a, b, …: the
/// bypass floor below compares two measured minima, and on a shared
/// host a sustained ambient-load burst covering one side's entire
/// sequential best-of-5 run could fake a >3x swing either way.
/// Interleaved, a burst degrades both minima or neither.
fn measure_pair<F: FnMut(), G: FnMut()>(n: u64, mut a: F, mut b: G) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..n {
            a();
        }
        best.0 = best.0.min(start.elapsed().as_nanos() as f64 / n as f64);
        let start = Instant::now();
        for _ in 0..n {
            b();
        }
        best.1 = best.1.min(start.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

fn build_node() -> NodeRuntime {
    let mut cfg = ClusterConfig::paper(OsVariant::McKernel).with_nodes(1);
    cfg.horizon_secs = 5;
    NodeRuntime::build(&cfg, 0, &StreamRng::root(1))
}

/// Open a regular (page-cached) file through the full offload path,
/// reusing the already-faulted arena page for the path string.
fn open_regular(node: &mut NodeRuntime) -> (u64, Cycles) {
    let pa = node
        .mck
        .as_ref()
        .expect("mckernel node")
        .process(node.app_pid)
        .expect("app")
        .aspace
        .pt
        .translate(node.arena_va)
        .expect("arena faulted at setup")
        .phys;
    node.hw.mem.write(pa, b"/data/bench.bin\0");
    let (fd, t) = node.offload_syscall(
        Sysno::Open,
        [node.arena_va.raw(), 0, 0, 0, 0, 0],
        Cycles::from_ms(1),
    );
    assert!(fd >= 0, "offloaded open failed: {fd}");
    (fd as u64, t)
}

/// The headline pair, interleaved: the full offload round trip
/// (marshal, IKC, delegator, proxy service with unified-address-space
/// dereference, reply) against a promoted in-LWK read with protection
/// domains armed. The `--check` floor gates on this ratio, so the two
/// sides must be measured under the same ambient load.
fn bench_offload_vs_bypass(n: u64) -> (f64, f64) {
    let mut off = build_node();
    let mut t_off = Cycles::from_ms(1);
    let arena = off.arena_va.raw();

    let mut fast = build_node();
    fast.mck.as_mut().expect("mckernel node").bypass = BypassConfig {
        enabled: true,
        promote_after: 1,
        domains: false,
    };
    fast.enable_domains();
    let (fd, t) = open_regular(&mut fast);
    // Warm the promotion: one offloaded read seeds the heat profiler
    // and the promotability lease; everything after stays in-LWK.
    let buf = fast.arena_va.raw();
    let (r, mut t_fast) = fast.offload_syscall(Sysno::Read, [fd, buf, 64, 0, 0, 0], t);
    assert_eq!(r, 64);

    let pair = measure_pair(
        n,
        || {
            t_off += Cycles(1000);
            black_box(off.offload_syscall(Sysno::GetRandom, [arena, 64, 0, 0, 0, 0], t_off));
        },
        || {
            t_fast += Cycles(1000);
            black_box(fast.offload_syscall(Sysno::Read, [fd, buf, 64, 0, 0, 0], t_fast));
        },
    );
    // Honesty: the fast side really did bypass (exactly one offloaded
    // read — the warmup — ever reached Linux's read arm).
    assert!(fast.bypass_promoted >= 5 * n);
    assert_eq!(fast.bypass_fallbacks, 0);
    pair
}

fn populated_pt() -> PageTable {
    let mut pt = PageTable::new();
    for i in 0..512u64 {
        pt.map_4k(
            VirtAddr(0x40_0000_0000 + i * PAGE_SIZE),
            PhysAddr(0x10_0000 + i * PAGE_SIZE),
            PteFlags::rw(),
        )
        .expect("unmapped");
    }
    for i in 0..16u64 {
        pt.map_2m(
            VirtAddr(0x80_0000_0000 + i * PAGE_SIZE_2M),
            PhysAddr(0x4000_0000 + i * PAGE_SIZE_2M),
            PteFlags::rw(),
        )
        .expect("unmapped");
    }
    pt
}

/// Same page translated repeatedly — a software-TLB hit (one array
/// index + tag compare in front of the radix walk).
fn bench_translate_hit(n: u64) -> f64 {
    let pt = populated_pt();
    let mut tlb = SoftTlb::new();
    measure(n, || {
        black_box(tlb.translate(&pt, VirtAddr(0x40_0000_5123)));
        black_box(tlb.translate(&pt, VirtAddr(0x80_0010_0123)));
    }) / 2.0
}

/// Sweeping translations (every lookup a different page: worst case for
/// any cache, exercises the raw walk).
fn bench_translate_miss(n: u64) -> f64 {
    let pt = populated_pt();
    let mut i = 0u64;
    measure(n, || {
        let va = 0x40_0000_0000 + (i % 512) * PAGE_SIZE + 0x123;
        i = i.wrapping_add(97);
        black_box(pt.translate(VirtAddr(va)));
    })
}

/// IKC send+recv pair throughput at the default queue depth, using the
/// zero-allocation path: encode-into-slot sends, by-reference receives.
fn bench_channel(n: u64) -> f64 {
    let mut ch = IkcChannel::new(IkcChannel::default_depth());
    let req = SyscallRequest {
        seq: 1,
        pid: 1000,
        tid: 1000,
        sysno: Sysno::Write.nr(),
        args: [3, 0x2000_0000, 4096, 0, 0, 0],
    };
    let mut seq = 0u64;
    measure(n, || {
        // Fill and drain half the queue per iteration.
        for _ in 0..32 {
            let mut r = req;
            seq += 1;
            r.seq = seq;
            ch.send_with(MsgKind::SyscallRequest, |b| r.encode_into(b))
                .expect("fits");
        }
        for _ in 0..32 {
            let m = ch.recv_ref().expect("just sent");
            black_box(m.verify());
            black_box(SyscallRequest::decode(m.payload));
        }
    }) / 64.0
}

/// One short application quantum (10 µs of work) through
/// `LinuxKernel::execute_on` on an app core of a single Linux node beside
/// the co-located Hadoop job, at instants striding across the 120 s load
/// horizon — the per-quantum host-model path of Fig. 7's Linux cells.
/// Under `LinuxCgroup` Hadoop tasks share the core (occupancy lookup plus
/// noise fold); under `LinuxCgroupIsolcpus` only kernel noise reaches it.
fn bench_host_exec(os: OsVariant, n: u64) -> f64 {
    let cfg = ClusterConfig::paper(os).with_nodes(1).with_insitu();
    let node = NodeRuntime::build(&cfg, 0, &StreamRng::root(1));
    let core = cfg.app_cores()[0];
    // Honesty: the cgroup core really carries Hadoop load, the isolated
    // one really does not.
    assert_eq!(
        node.linux.occupancy.has_load(core),
        os == OsVariant::LinuxCgroup,
        "{os:?} app core load"
    );
    let end = Cycles::from_secs(cfg.horizon_secs - 1);
    let mut t = Cycles::from_ms(1);
    measure(n, || {
        black_box(node.linux.execute_on(core, t, Cycles::from_us(10)));
        t += Cycles::from_us(997);
        if t >= end {
            t = Cycles::from_ms(1);
        }
    })
}

fn run_all() -> Vec<(&'static str, f64)> {
    let n = iters();
    let (roundtrip, bypass_read) = bench_offload_vs_bypass(n);
    vec![
        ("offload_roundtrip_ns", roundtrip),
        ("bypass_read_ns", bypass_read),
        ("translate_hit_ns", bench_translate_hit(n)),
        ("translate_miss_ns", bench_translate_miss(n)),
        ("channel_send_recv_ns", bench_channel(n / 32)),
        (
            "host_exec_short_cgroup_ns",
            bench_host_exec(OsVariant::LinuxCgroup, n),
        ),
        (
            "host_exec_short_isolcpus_ns",
            bench_host_exec(OsVariant::LinuxCgroupIsolcpus, n),
        ),
        // Environment honesty: how hard this baseline was driven. Not a
        // performance metric — `--check` exempts it from the gate.
        ("bench_iters", n as f64),
    ]
}

fn to_json(metrics: &[(&str, f64)]) -> String {
    let mut out = String::from("{\n  \"bench\": \"fig_offload_hotpath\",\n  \"metrics\": {\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("    \"{k}\": {v:.2}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

/// Minimal parser for the flat `"key": number` JSON this binary writes.
fn parse_metrics(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, val)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if let Ok(v) = val.trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let metrics = run_all();
    println!("=== offload hot path (host wall clock) ===");
    for (k, v) in &metrics {
        if *k == "bench_iters" {
            println!("{k:>24}: {v:10.0}");
        } else {
            println!("{k:>24}: {v:10.1} ns");
        }
    }

    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).expect("--check needs a baseline path");
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let base = parse_metrics(&baseline);
        let mut failed = false;
        for (k, v) in &metrics {
            if *k == "bench_iters" {
                continue; // environment record, not a perf metric
            }
            match base.iter().find(|(bk, _)| bk == k) {
                Some((_, bv)) if *v > bv * REGRESSION_TOLERANCE => {
                    eprintln!(
                        "PERF REGRESSION: {k} = {v:.1} ns vs baseline {bv:.1} ns (>{REGRESSION_TOLERANCE}x)"
                    );
                    failed = true;
                }
                Some((_, bv)) => {
                    println!("{k:>24}: ok ({:.2}x of baseline)", v / bv);
                }
                None => eprintln!("warning: baseline is missing metric {k}"),
            }
        }
        // Bypass floor on the FRESH interleaved pair (not the committed
        // baseline): the promoted read must beat the offload round trip
        // by BYPASS_FLOOR even while paying domain switches.
        let get = |name: &str| metrics.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        if let (Some(rt), Some(by)) = (get("offload_roundtrip_ns"), get("bypass_read_ns")) {
            if by * BYPASS_FLOOR > rt {
                eprintln!(
                    "BYPASS FLOOR: promoted read {by:.1} ns is not {BYPASS_FLOOR}x faster \
                     than the {rt:.1} ns offload roundtrip"
                );
                failed = true;
            } else {
                println!("{:>24}: ok ({:.1}x of roundtrip)", "bypass floor", rt / by);
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("perf check passed (tolerance {REGRESSION_TOLERANCE}x)");
        return;
    }

    let out = std::env::var("HLWK_BENCH_OUT").unwrap_or_else(|_| "BENCH_offload.json".into());
    std::fs::write(&out, to_json(&metrics)).expect("write benchmark output");
    println!("wrote {out}");
}
