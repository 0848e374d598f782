//! One benchmark run: pick the workload and pass, run it, print every
//! metric, and leave the result and trace files behind.

use crate::json::Json;
use crate::outcome::Outcome;
use crate::registry;
use crate::sim::Ctx;
use crate::stats::Summary;
use crate::workloads::{self, FULL, SMOKE};
use crate::{server, sim};
use std::path::{Path, PathBuf};

/// A run whose timed metric spreads wider than this between its own
/// repetitions cannot resolve a regression of the size the bounds name.
pub const MAX_SPREAD: f64 = 0.05;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny sizes, one set-up, two repetitions: the whole set in seconds.
    pub smoke: bool,
}

/// The benchmark's own directory: `benchmark/` under the working
/// directory when the command runs from a checkout's root, else where the
/// package was built.
pub fn bench_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Run one workload through one pass. On success the outcome carries
/// every metric of that pass; `Err` means the run could not be completed
/// at all (a failed check is an `Ok` outcome with `failed > 0`).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if !workloads::NAMES.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (known: {})",
            opts.workload,
            workloads::NAMES.join(", ")
        ));
    }
    let dir = bench_dir();
    let tmp = dir.join("tmp").join(format!("run-{}", std::process::id()));
    let results = dir.join("results");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    std::fs::create_dir_all(&results).map_err(|e| format!("create {}: {e}", results.display()))?;
    let is_server = opts.workload == "server_mix";
    let ctx = Ctx {
        name: &opts.workload,
        seed: opts.seed,
        sizes: if opts.smoke { &SMOKE } else { &FULL },
        tmp: &tmp,
        seconds: opts.seconds,
        // On `server_mix`, five batches of 32 jobs put eight latencies
        // beyond p95.
        min_reps: if opts.smoke { 2 } else { 5 },
    };
    let outcome = if opts.traced {
        let (outcome, tracer) = if is_server {
            server::per_layer(&ctx)
        } else {
            sim::per_layer(&ctx)
        }?;
        let path = results.join(format!("trace-{}.jsonl", opts.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        outcome
    } else if is_server {
        server::end_to_end(&ctx)?
    } else {
        sim::end_to_end(&ctx)?
    };
    let env = environment(&tmp, opts);
    let _ = std::fs::remove_dir_all(&tmp);

    // A metric set under a name the tables do not list is a bug here.
    for (name, _) in outcome.metrics.values() {
        assert!(
            registry::unit_of(name).is_some(),
            "metric {name} is not in the registry"
        );
    }
    let pass = outcome.pass();
    let file = results.join(format!("{}-{pass}.json", opts.workload));
    let doc =
        Json::obj([
            ("workload", Json::str(&opts.workload)),
            ("pass", Json::str(pass)),
            ("environment", env),
            (
                "unresolved",
                Json::Arr(unresolved(&outcome).into_iter().map(Json::str).collect()),
            ),
            (
                "failures",
                Json::Arr(outcome.checks.failures.iter().map(Json::str).collect()),
            ),
            ("result", result_line(&outcome)),
            (
                "also_measured",
                Json::obj(
                    also_measured(&outcome)
                        .into_iter()
                        .map(|(name, value, _)| (name, Json::Num(value))),
                ),
            ),
            (
                "series",
                Json::obj(outcome.metrics.samples().iter().map(|(name, v)| {
                    (*name, Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()))
                })),
            ),
        ]);
    std::fs::write(&file, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    Ok(outcome)
}

/// Timed end-to-end metrics (`setup_s` and `run_s`) whose own samples
/// spread wider than [`MAX_SPREAD`].
pub fn unresolved(outcome: &Outcome) -> Vec<String> {
    outcome
        .metrics
        .samples()
        .iter()
        .filter(|(_, v)| Summary::of(v).spread() > MAX_SPREAD)
        .map(|(name, _)| name.to_string())
        .collect()
}

/// Values a pass measured besides its own table, as `(name, value, unit)`:
/// the job latencies the end-to-end pass pools on `server_mix`.
pub fn also_measured(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let own = registry::names(outcome.traced);
    outcome
        .metrics
        .values()
        .iter()
        .filter(|(name, _)| !own.iter().any(|(n, _)| n == name))
        .map(|(name, value)| {
            let unit = registry::unit_of(name).expect("checked when the run ended");
            (*name, *value, unit)
        })
        .collect()
}

/// The one-line result: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of the pass.
pub fn result_line(outcome: &Outcome) -> Json {
    let metrics = registry::names(outcome.traced)
        .into_iter()
        .map(|(name, unit)| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(outcome.value(name))),
                    ("unit", Json::str(unit)),
                ]),
            )
        });
    Json::obj([
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        (
            "attempted",
            Json::Num(outcome.checks.attempted.max(1) as f64),
        ),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Human-readable report: every metric by name with its unit, timed ones
/// with quartiles and sample count.
pub fn print_report(outcome: &Outcome) {
    println!(
        "# {} / {} / seed {}",
        outcome.workload,
        outcome.pass(),
        outcome.seed
    );
    for (name, unit) in registry::names(outcome.traced) {
        let value = outcome.value(name);
        match outcome.metrics.samples().iter().find(|(n, _)| *n == name) {
            Some((_, v)) => {
                let s = Summary::of(v);
                println!(
                    "{name:<32} {value:>16.6} {unit:<6} fastest of n {}: median {:.6} q1 {:.6} q3 {:.6} spread {:.4}",
                    s.n,
                    s.median,
                    s.q1,
                    s.q3,
                    s.spread()
                );
            }
            None => println!("{name:<32} {value:>16.6} {unit}"),
        }
    }
    for (name, value, unit) in also_measured(outcome) {
        println!("{name:<32} {value:>16.6} {unit:<6} (also measured in this pass)");
    }
    for name in unresolved(outcome) {
        println!("unresolved: {name} spreads more than {MAX_SPREAD} between repetitions");
    }
    for failure in &outcome.checks.failures {
        println!("FAILED: {failure}");
    }
    println!(
        "attempted {} failed {}",
        outcome.checks.attempted, outcome.checks.failed
    );
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// File-system type holding `path`, from the longest matching mount point.
fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind.to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers depend on besides the code: recorded with every
/// result file.
fn environment(tmp: &Path, opts: &Options) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        // Only where the working directory is itself a repository: git would
        // otherwise search the directories above the checkout.
        (
            "commit",
            Json::str(if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            }),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("threads_per_rank", Json::Num(1.0)),
        (
            "busy_threads",
            Json::Num(match opts.workload.as_str() {
                "sup_lossy" | "sup_remote2" | "server_mix" => 2.0,
                _ => 1.0,
            }),
        ),
        ("spill_fs", Json::str(fs_type(tmp))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{Checks, Metrics};

    #[test]
    fn both_timed_metrics_are_held_to_the_spread_rule() {
        let mut metrics = Metrics::default();
        metrics.set_timed("setup_s", vec![2.0, 2.0, 2.4, 2.5, 2.0]);
        metrics.set_timed("run_s", vec![2.0, 2.01, 2.02, 2.03, 2.9]);
        let mut outcome = Outcome {
            workload: "qft_lossless".into(),
            traced: false,
            seed: 1,
            metrics,
            checks: Checks::default(),
        };
        assert_eq!(unresolved(&outcome), ["setup_s", "run_s"]);
        outcome.metrics = Metrics::default();
        outcome
            .metrics
            .set_timed("setup_s", vec![2.0, 2.01, 2.02, 2.03, 2.04]);
        assert!(unresolved(&outcome).is_empty());
    }
}
