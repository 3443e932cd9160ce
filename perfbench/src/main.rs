//! The repository's benchmark: end-to-end figures a client of the
//! replicated service sees, and a traced run that splits them by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-passive-ckpt|sim-failover|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A human-readable report goes to standard error; the last line of
//! standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The exit code is
//! nonzero when an output check fails. See `perfbench/README.md`.

mod procfs;
mod report;
mod sim;

use std::process::ExitCode;

use report::{json_line, Outcome, END_TO_END, PER_LAYER};
use sim::SimWorkload;

const WORKLOADS: [&str; 2] = ["sim-passive-ckpt", "sim-failover"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_one(args: &Args) -> Outcome {
    let workload = match args.workload.as_str() {
        "sim-passive-ckpt" => SimWorkload::PassiveCkpt,
        _ => SimWorkload::Failover,
    };
    sim::run(workload, args.seed, args.seconds, args.trace)
}

/// Runs every workload, each in a process of its own (so each reports its
/// own peak resident set), and prints their result lines.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for workload in WORKLOADS {
        eprintln!("== {workload}");
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run a workload");
        ok &= out.status.success();
        let stdout = String::from_utf8_lossy(&out.stdout);
        println!("{workload} {}", stdout.lines().last().unwrap_or("{}"));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vd-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // One CPU for the whole workload, as when the bounds were set (see
    // README.md, "Steadiness").
    let pinned = procfs::pin_to_one_cpu();
    let mut outcome = run_one(&args);
    outcome.notes.push(match pinned {
        Some(cpu) => format!("pinned to CPU {cpu}"),
        None => "not pinned: sched_setaffinity failed".into(),
    });
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    eprintln!(
        "{} seed {} ({}):",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for (name, unit) in spec {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for failure in &outcome.failures {
        eprintln!("  CHECK FAILED: {failure}");
    }
    println!("{}", json_line(&outcome, spec));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
