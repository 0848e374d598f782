//! Plan-vs-observed property suite: the schedule's `AccessPlan` must
//! predict, exactly and in order, the block slots every wave touches on
//! every rank — plans are neither stale (missing touches) nor speculative
//! (claiming touches that never happen).
//!
//! Each scheduled item is applied against a simulator whose per-rank
//! stores are wrapped in the recording shim from [`crate::store::trace`];
//! after every item the observed per-rank slot sequences are drained and
//! compared against the concatenation of the item's planned waves. The
//! sweep covers all five benchmark circuit families at one, two, and four
//! rank workers, fusion on, which exercises in-block, inter-block and
//! inter-rank gate waves, batch waves, and the bare swap/measure
//! expansions.

use crate::engine::CompressedSimulator;
use crate::store::trace;
use crate::SimConfig;
use qcs_circuits::supremacy::{random_circuit, Grid};
use qcs_circuits::{
    grover_circuit, phase_estimation_circuit, qaoa_circuit, qft_benchmark_circuit,
    random_regular_graph, schedule_circuit, AccessPlan, Circuit, QaoaParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The five benchmark families at harness scale (kept small: this suite
/// runs every family at three rank counts in debug builds).
fn families() -> Vec<(&'static str, Circuit, u32)> {
    vec![
        ("qft", qft_benchmark_circuit(9, 5), 3),
        ("grover", grover_circuit(7, 0b101_1010 & 0x7f, 4), 3),
        (
            "qaoa",
            qaoa_circuit(&random_regular_graph(9, 4, 5), &QaoaParams::standard(1)),
            3,
        ),
        ("phase_estimation", phase_estimation_circuit(6, 0.15625), 3),
        ("supremacy", random_circuit(Grid::new(3, 3), 8, 2), 3),
    ]
}

#[test]
fn access_plan_matches_observed_store_accesses() {
    for (name, circuit, block_log2) in families() {
        let n = circuit.num_qubits() as u32;
        for ranks_log2 in [0u32, 1, 2] {
            let cfg = SimConfig::default()
                .with_block_log2(block_log2)
                .with_ranks_log2(ranks_log2);
            let schedule = schedule_circuit(&circuit, &cfg.fusion_policy());
            let plan = AccessPlan::for_schedule(&schedule, ranks_log2, block_log2);
            assert_eq!(plan.len(), schedule.items().len());

            let log = trace::access_log(1 << ranks_log2);
            let mut sim = CompressedSimulator::new_traced(n, cfg, log.clone()).expect("sim");
            let mut rng = StdRng::seed_from_u64(2019);
            for (i, item) in schedule.items().iter().enumerate() {
                sim.apply_item(item, &mut rng).expect("apply item");
                let observed = trace::drain(&log);
                let planned: Vec<Vec<usize>> = (0..plan.ranks())
                    .map(|r| {
                        plan.item_waves(i)
                            .iter()
                            .flat_map(|w| w.per_rank[r].iter().copied())
                            .collect()
                    })
                    .collect();
                assert_eq!(
                    observed, planned,
                    "{name}: ranks_log2={ranks_log2}, scheduled item {i} ({item:?})"
                );
            }
        }
    }
}

#[test]
fn access_plan_is_exact_through_the_spill_tier_too() {
    // The plan describes *logical* accesses, so it must be invariant to
    // the storage tier: the same circuit over a 2-block residency budget
    // observes the same slot sequences, with the background fetcher off
    // and live (the default).
    for prefetch in [false, true] {
        spilled_run_matches_the_plan(
            SimConfig::default()
                .with_block_log2(3)
                .with_ranks_log2(1)
                .with_spill(2)
                .with_prefetch(prefetch),
        );
    }
}

fn spilled_run_matches_the_plan(cfg: SimConfig) {
    let circuit = qft_benchmark_circuit(8, 4);
    let schedule = schedule_circuit(&circuit, &cfg.fusion_policy());
    let plan = AccessPlan::for_schedule(&schedule, 1, 3);
    let log = trace::access_log(2);
    let prefetch = cfg.prefetch;
    let mut sim = CompressedSimulator::new_traced(8, cfg, log.clone()).expect("sim");
    // Seeding a spill store puts blocks through the shim-wrapped store
    // only after wrapping; drain anything recorded during construction.
    let _ = trace::drain(&log);
    let mut rng = StdRng::seed_from_u64(7);
    for (i, item) in schedule.items().iter().enumerate() {
        sim.apply_item(item, &mut rng).expect("apply item");
        let observed = trace::drain(&log);
        let planned: Vec<Vec<usize>> = (0..plan.ranks())
            .map(|r| {
                plan.item_waves(i)
                    .iter()
                    .flat_map(|w| w.per_rank[r].iter().copied())
                    .collect()
            })
            .collect();
        assert_eq!(
            observed, planned,
            "spilled run (prefetch {prefetch}) diverged at item {i}"
        );
    }
    let breakdown = sim.report().breakdown;
    assert!(
        breakdown.spills > 0,
        "precondition: the run must actually spill"
    );
    assert_eq!(
        breakdown.prefetch > std::time::Duration::ZERO,
        prefetch,
        "the background fetcher runs exactly when prefetch is on"
    );
}
