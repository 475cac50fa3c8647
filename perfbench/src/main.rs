//! perfbench — FairCap's seeded benchmark.
//!
//! Run from the repository root (`BENCHMARK.json` holds the command, the
//! workloads and the metrics with their bounds):
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload so_session --seed 1 --seconds 20 --trace 0
//! python3 perfbench/spread.py --workload so_session --seeds 1 2 3 4 5
//! ```
//!
//! Generates the workload's data from `--seed` and writes it as CSV + DAG
//! files under `.bench_work/`, then drives the library through its public
//! API: set-up reps (load + session build + server boot) with cold solves,
//! an in-process constraint sweep, and HTTP open and closed loops against
//! an in-process `faircap serve`. Every output is checked; a failed check
//! counts as a failed operation. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` additionally replays the solves through the public
//! step functions under the harness's own spans and reports the per-layer
//! metrics instead, writing the spans to `.bench_work/<workload>-<seed>/
//! trace.json`. The last line of standard output is the JSON result;
//! `workloads.json` holds the workload parameters and the per-layer →
//! end-to-end mapping.

mod bench;
mod http;
mod replay;
mod serve_load;
mod stats;
mod trace;
mod workload;

use bench::Args;
use faircap_core::Json;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let wl = workload::load(&args.workload).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let outcome = bench::run(&wl, &args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    for line in &outcome.log {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.to_owned(), entry)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}
