//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`. The run record (host,
//! `nproc`, git rev, seed, sample counts, quartiles) goes to
//! `perfbench/out/`, and a human-readable table to standard error.

use hawkeye_perfbench::{run, Params, Workload};
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value:?}")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let p = Params::new(workload, seed, seconds, trace);
    let out = run(&p);

    let record = out.record(workload.name(), seed, seconds, trace);
    let _ = std::fs::create_dir_all(&p.out_dir);
    let path = p.out_dir.join(format!(
        "run-{}-s{seed}-t{}.json",
        workload.name(),
        u8::from(trace)
    ));
    if let Ok(text) = serde_json::to_string_pretty(&record) {
        let _ = std::fs::write(&path, text);
    }
    for m in &out.metrics {
        eprintln!("{:40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
