//! Integration tests for the deterministic fault-campaign engine: the whole
//! micro-DES stack under enumerated fault scenarios, with the cross-stack
//! invariant registry checking every event step.
//!
//! The three pillars the `chaos` CLI and CI smoke job rely on:
//!
//! 1. a campaign is *clean* — the default invariant registry finds no
//!    violations in the shipped stack;
//! 2. a campaign is *thread-invariant* — the same report (and digest) at
//!    1, 2, and 8 threads;
//! 3. any violation is *replayable* — re-running its scenario id reproduces
//!    the same violation at the same event index, byte-identically.

use cellrel::device::TelephonyEvent;
use cellrel::sim::{Invariant, InvariantRegistry};
use cellrel::types::SimDuration;
use cellrel::workload::{
    run_chaos_campaign, run_scenario, run_scenario_with, ChaosConfig, ChaosScenario, StepView,
};

fn test_cfg() -> ChaosConfig {
    ChaosConfig {
        scenarios: 12,
        horizon: SimDuration::from_hours(3),
        grace: SimDuration::from_mins(45),
        ..ChaosConfig::default()
    }
}

#[test]
fn campaign_is_clean_and_invariant_across_thread_counts() {
    let base = run_chaos_campaign(&test_cfg());
    assert_eq!(base.scenarios, 12);
    assert!(base.events > 0);
    assert_eq!(
        base.violations,
        Vec::new(),
        "default invariant registry must pass on the shipped stack"
    );
    // Coverage counts one label per axis per scenario.
    let total: u64 = base.coverage.values().sum();
    assert_eq!(total, 12 * 6);

    for threads in [2, 8] {
        let other = run_chaos_campaign(&ChaosConfig {
            threads,
            ..test_cfg()
        });
        assert_eq!(base, other, "report differs at {threads} threads");
        assert_eq!(base.digest(), other.digest());
    }
}

#[test]
fn scenario_replay_is_byte_identical() {
    let cfg = test_cfg();
    for id in [0, 5, 11] {
        let a = run_scenario(&cfg, id);
        let b = run_scenario(&cfg, id);
        assert_eq!(a, b, "scenario {id} must replay identically");
        assert_eq!(a.scenario, id);
        assert_eq!(a.coverage, ChaosScenario::decode(id).coverage_labels());
    }
}

#[test]
fn different_root_seeds_give_different_campaigns() {
    let a = run_chaos_campaign(&test_cfg());
    let b = run_chaos_campaign(&ChaosConfig {
        root_seed: 99,
        ..test_cfg()
    });
    assert_ne!(a.digest(), b.digest(), "root seed must drive the campaign");
}

#[test]
fn forced_violation_replays_at_the_same_event_index() {
    // A canary invariant that trips on the first recovery execution gives us
    // a guaranteed violation to exercise the repro path end to end.
    struct Canary;
    impl Invariant<StepView> for Canary {
        fn name(&self) -> &'static str {
            "canary-recovery"
        }
        fn check(&mut self, view: &StepView) -> Result<(), String> {
            for (_, ev) in &view.new_events {
                if let TelephonyEvent::RecoveryActionExecuted { stage, .. } = ev {
                    return Err(format!("recovery stage {stage} ran"));
                }
            }
            Ok(())
        }
    }
    let with_canary = || {
        let mut reg = InvariantRegistry::new();
        reg.register(Canary);
        reg
    };

    let cfg = ChaosConfig {
        scenarios: 4,
        ..test_cfg()
    };
    // Find a scenario where recovery actually runs (storm schedules make
    // this near-certain within the horizon).
    let mut hit = None;
    for id in 0..24 {
        let outcome = run_scenario_with(&cfg, id, with_canary);
        if !outcome.violations.is_empty() {
            hit = Some((id, outcome));
            break;
        }
    }
    let (id, first) = hit.expect("some scenario must execute a recovery stage");

    let replay = run_scenario_with(&cfg, id, with_canary);
    assert_eq!(first.violations, replay.violations);
    let v = &first.violations[0];
    assert_eq!(v.scenario, id);
    assert_eq!(v.invariant, "canary-recovery");
    assert_eq!(
        v.event_index, replay.violations[0].event_index,
        "the violation must land on the same event index on replay"
    );
}

#[test]
fn moving_devices_pass_the_invariant_registry() {
    // Ids below 72 decode to `mobility:stationary`, so the campaign test
    // above, the CI smoke's first 64 and the benchmark's six never audit a
    // moving device. Id 72 is the first commuter, 144 the first roamer:
    // each move rebuilds the device's scan links. The event counts are the
    // ones a per-BS scan from the current position gives.
    let cfg = test_cfg();
    for (id, mobility, events) in [
        (72, "mobility:commuter", 4295),
        (144, "mobility:roamer", 4301),
    ] {
        let outcome = run_scenario(&cfg, id);
        assert!(
            outcome.coverage.iter().any(|c| c == mobility),
            "scenario {id}"
        );
        assert_eq!(outcome.violations, Vec::new(), "scenario {id}");
        assert_eq!(outcome.events, events, "scenario {id}");
    }
}
