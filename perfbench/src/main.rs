//! One run of one workload in this process; prints a JSON line.
//!
//! ```text
//! perfbench --workload osu_colloc --seed 1 [--trace --spans FILE]
//! ```
//!
//! `run.py` starts a fresh process per run (allocator history carries
//! across runs), measures it from outside and checks its digests.

use perfbench::workload::PAPER_NODES;
use perfbench::{spans, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload NAME --seed N [--trace] [--spans FILE]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut spans_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--trace" => trace = true,
            "--workload" | "--seed" | "--spans" => {
                let Some(v) = args.next() else {
                    return usage(&format!("{flag} needs a value"));
                };
                match flag.as_str() {
                    "--workload" => match Workload::parse(&v) {
                        Some(w) => workload = Some(w),
                        None => return usage(&format!("unknown workload {v}")),
                    },
                    "--seed" => match v.parse::<u64>() {
                        Ok(s) => seed = Some(s),
                        Err(_) => return usage(&format!("bad seed {v}")),
                    },
                    _ => spans_path = Some(v),
                }
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };

    let out = perfbench::run(workload, seed, PAPER_NODES, trace);
    if let Some(path) = spans_path {
        if let Err(e) = std::fs::write(&path, spans::to_json(&out.spans)) {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut line = format!(
        r#"{{"workload":"{}","seed":{seed},"wall_s":{},"setup_s":{},"cells":["#,
        workload.name(),
        out.wall_s,
        out.setup_s,
    );
    for (i, c) in out.cells.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            line,
            r#"{sep}{{"id":"{}","digest":"{:016x}","ok":{}}}"#,
            c.id, c.digest, c.ok
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str(r#"],"layers":{"#);
    if trace {
        for (i, (name, v)) in out.layers.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(line, r#"{sep}"{name}":{v}"#).expect("writing to a String cannot fail");
        }
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}
