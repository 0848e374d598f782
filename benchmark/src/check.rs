//! `benchmark check-repeat`: the full set twice on the same code, every
//! workload x metric compared against the benchmark's own bounds.

use crate::json::Json;
use crate::outcome::Outcome;
use crate::registry::{Repeat, END_TO_END, PER_LAYER, TIMED_BOUND};
use crate::run::{self, Options};
use crate::workloads;

/// Deterministic values may differ by this much (relative) on
/// `server_mix`, where preemption points depend on thread timing.
const SERVER_TOLERANCE: f64 = 1e-3;

struct Row {
    workload: String,
    metric: &'static str,
    first: f64,
    second: f64,
    /// Relative difference the rule allows; `None` for rows that are
    /// reported but not gated (per-layer clock readings, loose counts).
    allowed: Option<f64>,
    ok: bool,
}

/// What the traced pass claims of itself, held to in every traced run:
/// `(metric, limit, true when the limit is a ceiling)`.
const TRACE_CLAIMS: [(&str, f64, bool); 2] = [
    ("trace.overhead_ratio", 1.05, true),
    ("trace.accounted_ratio", 0.9, false),
];

struct Claim {
    workload: String,
    metric: &'static str,
    value: f64,
    limit: f64,
    ok: bool,
}

fn check_claims(workload: &str, outcome: &Outcome, claims: &mut Vec<Claim>) {
    if !outcome.traced {
        return;
    }
    for (metric, limit, ceiling) in TRACE_CLAIMS {
        let value = outcome.value(metric);
        claims.push(Claim {
            workload: workload.to_string(),
            metric,
            value,
            limit,
            ok: if ceiling {
                value <= limit
            } else {
                value >= limit
            },
        });
    }
}

fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE)
    }
}

fn compare(workload: &str, first: &Outcome, second: &Outcome, rows: &mut Vec<Row>) {
    let exact_tolerance = if workload == "server_mix" {
        SERVER_TOLERANCE
    } else {
        0.0
    };
    let rules: Vec<(&'static str, Option<f64>)> = if first.traced {
        // On `server_mix` the engine-side counters are sums over the jobs'
        // final reports, and a resumed job's report starts at its
        // checkpoint: they follow the preemption points, so only report.
        let report_sum = |name: &str| {
            workload == "server_mix"
                && ["cache.", "engine.", "partial.", "cluster."]
                    .iter()
                    .any(|prefix| name.starts_with(prefix))
        };
        PER_LAYER
            .iter()
            .map(|l| {
                let gated = l.repeat == Repeat::Exact && !report_sum(l.name);
                (l.name, gated.then_some(exact_tolerance))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|e| {
                let allowed = match e.repeat {
                    Repeat::Timed | Repeat::Loose => e.bound,
                    // Peak memory under spill counts staging and dirty
                    // buffers, whose occupancy is timing-dependent.
                    Repeat::Exact
                        if e.name == "peak_mem_bytes" && workload == "qaoa_budget_spill" =>
                    {
                        e.bound
                    }
                    Repeat::Exact => exact_tolerance,
                };
                (e.name, Some(allowed))
            })
            // Job latency only exists here, so it is no row of the
            // end-to-end table; it is still held to the timed bound.
            .chain(
                ["server.job_p50_s", "server.job_p95_s"]
                    .into_iter()
                    .filter(|_| workload == "server_mix")
                    .map(|name| (name, Some(TIMED_BOUND))),
            )
            .collect()
    };
    for (metric, allowed) in rules {
        let (a, b) = (first.value(metric), second.value(metric));
        let ok = allowed.is_none_or(|limit| relative_difference(a, b) <= limit);
        rows.push(Row {
            workload: workload.to_string(),
            metric,
            first: a,
            second: b,
            allowed,
            ok,
        });
    }
}

/// Run every workload through both passes twice and compare. Returns
/// whether every gated row held and no run was unresolved or incorrect.
pub fn check_repeat(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut claims = Vec::new();
    let mut all_ok = true;
    for name in workloads::NAMES {
        for traced in [false, true] {
            let opts = Options {
                workload: name.to_string(),
                seed,
                seconds,
                traced,
                smoke,
            };
            let first = run::run(&opts)?;
            let second = run::run(&opts)?;
            for outcome in [&first, &second] {
                run::print_report(outcome);
                let unresolved = run::unresolved(outcome);
                if outcome.checks.failed > 0 || !unresolved.is_empty() {
                    all_ok = false;
                }
                check_claims(name, outcome, &mut claims);
            }
            compare(name, &first, &second, &mut rows);
        }
    }
    for row in rows.iter().filter(|r| !r.ok) {
        all_ok = false;
        println!(
            "MISS {} {}: {} vs {} (allowed {:?})",
            row.workload, row.metric, row.first, row.second, row.allowed
        );
    }
    for claim in claims.iter().filter(|c| !c.ok) {
        all_ok = false;
        println!(
            "MISS {} {}: {} (limit {})",
            claim.workload, claim.metric, claim.value, claim.limit
        );
    }
    let doc = Json::obj([
        ("ok", Json::Bool(all_ok)),
        ("seed", Json::Num(seed as f64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", Json::str(&r.workload)),
                            ("metric", Json::str(r.metric)),
                            ("first", Json::Num(r.first)),
                            ("second", Json::Num(r.second)),
                            (
                                "relative_difference",
                                Json::Num(relative_difference(r.first, r.second)),
                            ),
                            ("allowed", r.allowed.map_or(Json::Null, Json::Num)),
                            ("ok", Json::Bool(r.ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "claims",
            Json::Arr(
                claims
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("workload", Json::str(&c.workload)),
                            ("metric", Json::str(c.metric)),
                            ("value", Json::Num(c.value)),
                            ("limit", Json::Num(c.limit)),
                            ("ok", Json::Bool(c.ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = run::bench_dir().join("results").join("check-repeat.json");
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("check-repeat: {}", if all_ok { "ok" } else { "FAILED" });
    Ok(all_ok)
}
