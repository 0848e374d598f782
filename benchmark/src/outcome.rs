//! What one benchmark run produces: named metric values, the samples
//! behind the timed ones, and the correctness tally.

use crate::stats::Summary;

/// Pass/fail tally of the correctness gate. Every timed operation and
/// every check counts as one attempt.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one attempt; record `describe()` when `ok` is false.
    pub fn expect(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(describe());
        }
    }

    /// Count `n` operations that completed without error.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// Metric values of one run, in reporting order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
    /// Repetition samples of the timed metrics, for quartiles.
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Set `name` to the fastest of `samples` and keep them all. What
    /// disturbs a repetition on a shared machine (a neighbour on the same
    /// core, a preempted rank thread at a barrier) only ever adds time, by
    /// a tenth to a third for spells of seconds to minutes, so the
    /// fastest sample is the one that says most about the code: between
    /// two ten-seed sets it moved 1-6 % where the median of the same
    /// samples moved 1-10 %. Median, quartiles and spread are printed
    /// beside it.
    pub fn set_timed(&mut self, name: &'static str, samples: Vec<f64>) {
        self.set(name, Summary::of(&samples).min);
        self.samples.push((name, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn values(&self) -> &[(&'static str, f64)] {
        &self.values
    }

    pub fn samples(&self) -> &[(&'static str, Vec<f64>)] {
        &self.samples
    }
}

/// Outcome of `benchmark run` for one workload and pass.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub metrics: Metrics,
    pub checks: Checks,
}

impl Outcome {
    /// The pass that produced this outcome, as the CLI names it.
    pub fn pass(&self) -> &'static str {
        if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        }
    }

    /// The value a pass prints for `name`: what the run measured, or 0 for
    /// a layer that does no work on this workload.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).unwrap_or(0.0)
    }
}
