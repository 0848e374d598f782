//! Drives the real binary over the whole set in `--smoke` mode and pins
//! the output contract: names, manifest, predicted-zero cells.

use qcs_benchmark::workloads::NAMES as WORKLOADS;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

fn benchmark(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Every `"key": "value"` string pair for `key` in a JSON text.
fn string_values(json: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\": \"");
    json.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &json[at + needle.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// `name -> value` of the one-line result's `metrics` object.
fn metrics(result_line: &str) -> BTreeMap<String, f64> {
    let body = &result_line[result_line.find("\"metrics\": {").expect("metrics key")..];
    body.match_indices("\": {\"value\": ")
        .map(|(at, sep)| {
            let name_start = body[..at].rfind('"').expect("opening quote") + 1;
            let rest = &body[at + sep.len()..];
            let value = &rest[..rest.find(',').expect("value end")];
            (
                body[name_start..at].to_string(),
                value.parse().unwrap_or(f64::NAN),
            )
        })
        .collect()
}

/// Names listed under `section` of `BENCHMARK.json` (up to the next array).
fn listed(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{section}\": ["))
        .expect("section exists");
    let body = &manifest[start..];
    let end = body.find("\n  ]").expect("section closes");
    string_values(&body[..end], "name")
}

#[test]
fn smoke_set_prints_exactly_the_listed_metrics() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let (ok, generated) = benchmark(&["manifest"]);
    assert!(ok);
    assert_eq!(
        generated.trim(),
        manifest.trim(),
        "BENCHMARK.json is stale: regenerate it with `benchmark manifest`"
    );
    assert_eq!(listed(&manifest, "workloads"), WORKLOADS);
    let per_layer = listed(&manifest, "per_layer");

    let started = Instant::now();
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = benchmark(&[
                "run",
                "--workload",
                workload,
                "--seed",
                "7",
                "--trace",
                trace,
                "--smoke",
                // Millisecond repetitions spread by more than 0.05; the
                // contract pinned here is the output's, not the noise rule.
                "--unresolved-ok",
            ]);
            let line = stdout.lines().last().unwrap_or_default();
            assert!(ok, "{workload} trace {trace} failed:\n{stdout}");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            let got = metrics(line);
            let names: Vec<&str> = got.keys().map(String::as_str).collect();
            for name in &names {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {name}"
                );
            }
            let mut want = listed(&manifest, section);
            want.sort();
            assert_eq!(names, want, "{workload} trace {trace}");
            assert!(
                got.values().all(|v| v.is_finite()),
                "{workload}: non-finite value in {line}"
            );

            // Job latency is printed beside the end-to-end metrics on
            // `server_mix` and nowhere else, under its per-layer name.
            let also: Vec<&str> = stdout
                .lines()
                .filter(|l| l.ends_with("(also measured in this pass)"))
                .filter_map(|l| l.split_whitespace().next())
                .collect();
            if trace == "0" && workload == "server_mix" {
                assert_eq!(also, ["server.job_p50_s", "server.job_p95_s"]);
                assert!(also.iter().all(|n| per_layer.contains(&n.to_string())));
            } else {
                assert_eq!(also, Vec::<&str>::new(), "{workload} trace {trace}");
            }
            if trace == "0" {
                assert!(
                    got.values().all(|v| *v != 0.0),
                    "{workload}: zero in {line}"
                );
                continue;
            }
            // Layers that do no work on a workload read zero there.
            let nonzero = |prefix: &str| {
                got.iter()
                    .filter(|(k, v)| k.starts_with(prefix) && **v != 0.0)
                    .map(|(k, _)| k.as_str())
                    .collect::<Vec<_>>()
            };
            let off = Vec::<&str>::new();
            if workload != "qaoa_budget_spill" {
                assert_eq!(nonzero("store."), off, "{workload}");
            } else {
                assert!(got["store.spills"] > 0.0 && got["engine.escalations"] >= 2.0);
            }
            if workload != "sup_remote2" {
                assert_eq!(nonzero("net."), off, "{workload}");
            } else {
                assert!(got["net.relay_hops"] > 0.0 && got["net.frame_rtt_s"] > 0.0);
            }
            if workload != "server_mix" {
                assert_eq!(nonzero("server."), off, "{workload}");
                assert_eq!(nonzero("checkpoint."), off, "{workload}");
            } else {
                assert!(got["server.job_p50_s"] > 0.0 && got["server.job_p95_s"] > 0.0);
                assert_eq!(got["server.jobs_failed"], 0.0);
            }
            // The fused in-place steady state never touches the allocator
            // (the product's own `hotpath_alloc` pin, seen from outside).
            if workload == "qft_lossless" {
                assert_eq!(got["block.codec_allocs"], 0.0, "{workload}");
            }
            assert!(got["trace.accounted_ratio"] >= 0.9, "{workload}: {line}");
        }
    }
    assert!(
        started.elapsed().as_secs() < 30,
        "smoke set took {:?}",
        started.elapsed()
    );

    // The trace files hold one well-formed span per line.
    let trace = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/trace-server_mix.jsonl"
    ))
    .expect("trace file written");
    assert!(trace
        .lines()
        .all(|l| l.starts_with("{\"trace_id\": 7, \"span_id\": ")));
    for name in [
        "workload",
        "setup",
        "repetition",
        "submit_ack",
        "queued",
        "running",
        "done",
    ] {
        assert!(
            string_values(&trace, "name").iter().any(|n| n == name),
            "{name}"
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["run", "--workload", "nope", "--seed", "1"][..],
        &["run", "--seed", "1"][..],
        &["run", "--workload", "sup_lossy", "--trace", "2"][..],
        &["run", "--workload", "sup_lossy", "--pass", "per_layer"][..],
        &["run", "--workload", "sup_lossy", "--strict"][..],
        &["frobnicate"][..],
    ] {
        let (ok, stdout) = benchmark(args);
        assert!(!ok && stdout.is_empty(), "{args:?}: {stdout}");
    }
}
