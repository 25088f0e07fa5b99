//! `perfbench` — run one workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <characterize|accelerator|serve> [--seed N] [--seconds S] \
//!     [--trace 0|1] [--bless]
//! ```
//!
//! Run from the repository root: the metric list comes from
//! `BENCHMARK.json` there, artifacts land in `.bench_out/`. The last line
//! of standard output is the result object `{"correct", "attempted",
//! "failed", "metrics"}`. `--bless` rewrites the committed digests of the
//! run's seed from this run.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use uvf_perfbench::host::HostInfo;
use uvf_perfbench::runner::{run, RunConfig, RunOutput, Workload};
use uvf_perfbench::spec::{CommittedDigests, Spec};
use uvf_perfbench::workloads::{Accelerator, Characterize, Serve};

const DIGESTS: &str = "perfbench/digests.json";
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds {value}: expected (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn result_line(out: &RunOutput) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct,
        out.tally.attempted.max(1),
        out.tally.failed
    )
}

fn run_workload<W: Workload>(args: &Args, spec: &Spec) -> Result<RunOutput, String> {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let (threads, connections) = W::load();
    let host = HostInfo::check(threads, connections)?;
    let committed = CommittedDigests::load(Path::new(DIGESTS))?;
    let wanted = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut out = run::<W>(&cfg, args.trace, wanted, Some(&committed))?;
    out.log.insert(0, host.line());
    if args.bless {
        let mut blessed = committed.clone();
        if blessed.seed != args.seed {
            blessed = CommittedDigests {
                seed: args.seed,
                by_workload: Vec::new(),
            };
        }
        blessed.by_workload.retain(|(n, _)| n != W::NAME);
        blessed
            .by_workload
            .push((W::NAME.into(), out.digests.clone()));
        blessed.by_workload.sort();
        std::fs::write(DIGESTS, blessed.to_json_string())
            .map_err(|e| format!("write {DIGESTS}: {e}"))?;
        out.log
            .push(format!("blessed {} digests of seed {}", W::NAME, args.seed));
    }
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {}, \"threads\": {}, \"connections\": {}, \"profile\": \"{}\", \"git_rev\": \"{}\", \"result\": {}}}\n",
        W::NAME,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        host.nproc,
        host.threads,
        host.connections,
        host.profile,
        host.git_rev,
        result_line(&out)
    );
    out.artifacts.push((
        format!(
            "{}-seed{}-trace{}.json",
            W::NAME,
            args.seed,
            u8::from(args.trace)
        ),
        record,
    ));
    Ok(out)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let spec = Spec::load(Path::new("BENCHMARK.json"))?;
        if !spec.workloads.contains(&args.workload) {
            return Err(format!(
                "unknown workload {:?} (BENCHMARK.json lists {})",
                args.workload,
                spec.workloads.join(", ")
            ));
        }
        println!(
            "perfbench: workload {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        match args.workload.as_str() {
            "characterize" => run_workload::<Characterize>(&args, &spec),
            "accelerator" => run_workload::<Accelerator>(&args, &spec),
            "serve" => run_workload::<Serve>(&args, &spec),
            other => Err(format!("workload {other} is not implemented")),
        }
    });
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &out.log {
        println!("{line}");
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    for (name, text) in &out.artifacts {
        let path = Path::new(OUT_DIR).join(name);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("artifact: {}", path.display());
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
