//! `benchmark run|all|check-repeat|manifest` — see `README.md`.

use qcs_benchmark::run::{self, Options};
use qcs_benchmark::{check, registry, workloads};
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--smoke] [--unresolved-ok]
  benchmark all [--seed <u64>] [--seconds <s>] [--smoke]
  benchmark check-repeat [--seed <u64>] [--seconds <s>] [--smoke]
  benchmark manifest";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    unresolved_ok: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 2019,
        seconds: None,
        traced: false,
        smoke: false,
        unresolved_ok: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            "--unresolved-ok" => out.unresolved_ok = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn options(args: &Args, workload: &str, traced: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            0.2
        } else {
            registry::RUN_SECONDS as f64
        }),
        traced,
        smoke: args.smoke,
    }
}

/// Run, print the report and the one-line result. `Ok(true)` when every
/// check passed and every timed end-to-end metric resolved.
/// `unresolved_ok` is for a caller that judges the spread itself, over
/// many runs, and needs each of them to end: the driver of
/// `BENCHMARK.json`.
fn run_and_print(opts: &Options, unresolved_ok: bool) -> Result<bool, String> {
    let outcome = run::run(opts)?;
    run::print_report(&outcome);
    println!("{}", run::result_line(&outcome));
    let resolved = unresolved_ok || run::unresolved(&outcome).is_empty();
    Ok(outcome.checks.failed == 0 && resolved)
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let (cmd, rest) = argv.split_first().ok_or(USAGE)?;
    let args = parse(rest)?;
    match cmd.as_str() {
        "run" => {
            let workload = args.workload.as_deref().ok_or("run needs --workload")?;
            run_and_print(&options(&args, workload, args.traced), args.unresolved_ok)
        }
        "all" => {
            let mut ok = true;
            for name in workloads::NAMES {
                for traced in [false, true] {
                    ok &= run_and_print(&options(&args, name, traced), false)?;
                }
            }
            Ok(ok)
        }
        "check-repeat" => {
            let opts = options(&args, workloads::NAMES[0], false);
            check::check_repeat(opts.seed, opts.seconds, opts.smoke)
        }
        "manifest" => {
            println!("{}", registry::manifest().pretty());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
