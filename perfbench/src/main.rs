//! End-to-end restoration benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_rc500|served_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed` (a Holme–Kim hidden graph per
//! job spec, serialized to edge-list bytes and read back exactly as
//! `sgr restore --graph` would), so the program under test only ever
//! sees generated inputs. With `--trace 0` the run measures the
//! end-to-end metrics untraced; with `--trace 1` it runs the same
//! pipeline a second time as a composition of the layers' public calls,
//! timing each call from outside, and reports the per-layer metrics.
//! Either way every output is checked; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See
//! `WORKLOADS.md` for why each workload exists and how to read the
//! metrics.

mod metrics;
mod served;
mod setup;
mod traced;
mod workload;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: sgr_util::alloc::TrackingAlloc = sgr_util::alloc::TrackingAlloc;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sgr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::Workload::by_name(&args.workload) else {
        eprintln!(
            "sgr-perfbench: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let report = match workload::run(&spec, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sgr-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
