//! Integration: the paper's two deployed enhancements (§4.2–4.3), end to
//! end — micro A/B fleets for the RAT policy and the recovery trigger, and
//! the TIMP optimisation chain from duration samples to probation triples.

use cellrel::analysis::ab::{compare_rat_policy, compare_recovery};
use cellrel::device::RecoveryConfig;
use cellrel::sim::SimRng;
use cellrel::timp::{anneal_probations, AnnealConfig, TimpModel};
use cellrel::workload::durations::sample_auto_heal_secs;
use cellrel::workload::{run_rat_policy_ab, run_recovery_ab, AbConfig};

#[test]
fn stability_compatible_policy_reduces_failures_on_5g_phones() {
    let cfg = AbConfig {
        devices: 14,
        days: 2,
        seed: 31,
        stall_rate_per_hour: 2.0,
        suppress_user_reset: false,
        threads: 0,
    };
    let (vanilla, patched) = run_rat_policy_ab(&cfg);
    let cmp = compare_rat_policy(vanilla, patched);
    // Fig. 20's direction: fewer failures per device.
    assert!(
        cmp.frequency_change < -0.05,
        "expected a frequency reduction, got {:+.1}%",
        cmp.frequency_change * 100.0
    );
}

#[test]
fn timp_recovery_reduces_stall_durations() {
    let cfg = AbConfig {
        devices: 12,
        days: 3,
        seed: 32,
        stall_rate_per_hour: 4.0,
        suppress_user_reset: true,
        threads: 0,
    };
    let (vanilla, timp) = run_recovery_ab(&cfg);
    let cmp = compare_recovery(vanilla, timp);
    assert!(
        cmp.stall_duration_change < 0.0,
        "expected shorter stalls, got {:+.1}%",
        cmp.stall_duration_change * 100.0
    );
    assert!(!cmp.vanilla.stall_durations.is_empty());
    assert!(!cmp.timp.stall_durations.is_empty());
}

#[test]
fn timp_chain_produces_sub_minute_probations() {
    // duration samples → model fit → annealing → probation triple.
    let mut rng = SimRng::new(33);
    let samples: Vec<f64> = (0..20_000)
        .map(|_| sample_auto_heal_secs(&mut rng))
        .collect();
    let recovery = RecoveryConfig::vanilla();
    let model = TimpModel::from_durations(
        &samples,
        recovery.op_success,
        recovery.op_cost.map(|c| c.as_secs_f64()),
    );
    let result = anneal_probations(&model, &AnnealConfig::default());
    assert!(result.probations.iter().all(|&p| p < 60));
    assert!(result.expected_time < result.vanilla_time);
    // The optimised probations drop into a valid RecoveryConfig.
    let cfg = RecoveryConfig::with_probations(result.probations);
    assert!(cfg.validate().is_ok());
}

#[test]
fn paired_arms_share_world_conditions() {
    // The A/B harness is paired: same seeds, same deployment. Re-running an
    // arm must reproduce it exactly.
    let cfg = AbConfig {
        devices: 6,
        days: 1,
        seed: 34,
        stall_rate_per_hour: 2.0,
        suppress_user_reset: false,
        threads: 0,
    };
    let (v1, _) = run_rat_policy_ab(&cfg);
    let (v2, _) = run_rat_policy_ab(&cfg);
    assert_eq!(v1.frequency, v2.frequency);
    assert_eq!(v1.by_kind, v2.by_kind);
}
