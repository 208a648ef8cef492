//! Micro A/B experiments — the paper's deployed-enhancement evaluation
//! (§4.3, Figures 19–21).
//!
//! Each arm runs a fleet of full [`DeviceSim`] agents (radio + modem +
//! netstack + telephony + Android-MOD monitor) under one configuration:
//!
//! * **RAT policy A/B** (Fig. 19/20): 5G phones under vanilla Android 10
//!   (blind 5G preference) vs the Stability-Compatible policy with 4G/5G
//!   dual connectivity.
//! * **Recovery A/B** (Fig. 21): vanilla one-minute probations vs the
//!   TIMP-optimised (21 s, 6 s, 16 s) trigger.

use cellrel_device::{
    DeploymentConfig, DeviceConfig, DeviceSim, MonitoringService, RadioEnvironment, RatPolicyKind,
    RecoveryConfig,
};
use cellrel_sim::{resolve_threads, run_sharded_merge, Merge, SimRng, TimerWheel};
use cellrel_types::{DeviceId, FailureKind, Isp, Rat, RatSet, SimTime};
use std::collections::HashSet;

/// Experiment arm label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbArm {
    /// Vanilla Android 10 RAT policy.
    VanillaAndroid10,
    /// Stability-compatible RAT policy with dual connectivity.
    StabilityCompatible,
    /// Vanilla 60/60/60 recovery probations.
    VanillaRecovery,
    /// TIMP-optimised 21/6/16 probations.
    TimpRecovery,
    /// An ablation arm with a custom policy (see `run_custom_arm`).
    Custom,
}

/// A/B experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct AbConfig {
    /// Devices per arm.
    pub devices: usize,
    /// Simulated days per device.
    pub days: u64,
    /// Root seed. Both arms share world seeds so they face the same
    /// conditions (paired experiment).
    pub seed: u64,
    /// Base stall hazard (injections/hour) — raised above the population
    /// default so short experiments collect enough stalls.
    pub stall_rate_per_hour: f64,
    /// Suppress user manual resets (isolates the recovery mechanism, as the
    /// duration analysis of Fig. 21 does).
    pub suppress_user_reset: bool,
    /// Worker threads per arm (`0` = auto: `CELLREL_THREADS` or the
    /// machine's available parallelism). Outcomes do not depend on this.
    pub threads: usize,
}

impl Default for AbConfig {
    fn default() -> Self {
        AbConfig {
            devices: 24,
            days: 4,
            seed: 77,
            stall_rate_per_hour: 2.0,
            suppress_user_reset: false,
            threads: 0,
        }
    }
}

/// Aggregate outcome of one arm.
#[derive(Debug, Clone)]
pub struct AbOutcome {
    /// Which arm.
    pub arm: AbArm,
    /// Devices simulated.
    pub devices: usize,
    /// Device-day prevalence: the fraction of (device, day) cells with ≥1
    /// recorded true failure. Short, hazard-dense experiments saturate the
    /// per-device prevalence at 100 %, so the A/B comparison uses the
    /// day-granular version of the same statistic.
    pub prevalence: f64,
    /// Mean recorded true failures per device.
    pub frequency: f64,
    /// Recorded failure counts by kind (indexed by `FailureKind::index`).
    pub by_kind: [u64; 5],
    /// Measured Data_Stall durations (seconds).
    pub stall_durations: Vec<f64>,
    /// Total duration of all recorded failures (seconds).
    pub total_duration_secs: f64,
}

impl AbOutcome {
    /// Mean stall duration (0 when no stalls).
    pub fn mean_stall_secs(&self) -> f64 {
        if self.stall_durations.is_empty() {
            0.0
        } else {
            self.stall_durations.iter().sum::<f64>() / self.stall_durations.len() as f64
        }
    }

    /// Median stall duration (0 when no stalls).
    pub fn median_stall_secs(&self) -> f64 {
        if self.stall_durations.is_empty() {
            return 0.0;
        }
        let mut xs = self.stall_durations.clone();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
        cellrel_sim::percentile(&xs, 0.5)
    }
}

/// Per-shard partial accumulation of an arm's failure records. Durations
/// accumulate as integer milliseconds so the arm total is exact (and hence
/// thread-count invariant) rather than a float sum in shard order.
#[derive(Debug, Default)]
struct ArmPartial {
    by_kind: [u64; 5],
    stall_durations: Vec<f64>,
    duration_ms: u64,
    failing_device_days: HashSet<(usize, u64)>,
    failures: u64,
}

impl Merge for ArmPartial {
    fn merge(&mut self, other: Self) {
        self.by_kind.merge(other.by_kind);
        self.stall_durations.merge(other.stall_durations);
        self.duration_ms.merge(other.duration_ms);
        self.failing_device_days.merge(other.failing_device_days);
        self.failures.merge(other.failures);
    }
}

/// Run one arm: a fleet of monitored 5G devices with the given policy and
/// recovery configuration, sharded over `cfg.threads` scoped threads.
fn run_arm(
    arm: AbArm,
    policy: RatPolicyKind,
    recovery: RecoveryConfig,
    cfg: &AbConfig,
) -> AbOutcome {
    let mut world_rng = SimRng::new(cfg.seed);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut world_rng);
    let horizon = SimTime::from_secs(cfg.days * 86_400);
    let threads = resolve_threads(cfg.threads);

    let part = run_sharded_merge(cfg.devices, threads, |range| {
        let mut p = ArmPartial::default();
        for i in range {
            // Per-device world seed shared across arms (paired design):
            // derived from the experiment seed and device index alone, so
            // neither iteration order nor shard layout changes any
            // device's draws.
            let mut dev_rng = SimRng::for_substream(cfg.seed, i as u64);
            // Spread homes from the city core out to the 5G coverage edge —
            // the mixed exposure where the blind-5G policy does its damage.
            let city = env.city_centers()[i % env.city_centers().len()];
            let home = city.offset(dev_rng.normal(0.0, 4.0), dev_rng.normal(0.0, 4.0));

            let mut dc = DeviceConfig::new(DeviceId(i as u32), Isp::A, home);
            dc.rats = RatSet::up_to(Rat::G5);
            dc.policy = policy;
            dc.recovery = recovery;
            dc.stall_rate_per_hour = cfg.stall_rate_per_hour;
            if cfg.suppress_user_reset {
                dc.user_reset_median_secs = 1e9;
            }

            let monitor = MonitoringService::new(DeviceId(i as u32), dev_rng.fork(1));
            let mut queue = TimerWheel::new();
            let mut sim = DeviceSim::new(dc, &env, monitor, dev_rng.fork(2), &mut queue);
            queue.run_until(&mut sim, horizon);

            let records = sim.into_listener().into_records();
            p.failures += records.len() as u64;
            for r in &records {
                p.by_kind[r.kind.index()] += 1;
                p.duration_ms += r.duration.as_millis();
                p.failing_device_days
                    .insert((i, r.start.as_secs() / 86_400));
                if r.kind == FailureKind::DataStall {
                    p.stall_durations.push(r.duration.as_secs_f64());
                }
            }
        }
        p
    });

    AbOutcome {
        arm,
        devices: cfg.devices,
        prevalence: part.failing_device_days.len() as f64 / (cfg.devices as f64 * cfg.days as f64),
        frequency: part.failures as f64 / cfg.devices as f64,
        by_kind: part.by_kind,
        stall_durations: part.stall_durations,
        total_duration_secs: part.duration_ms as f64 / 1000.0,
    }
}

/// Run a single arm with an arbitrary RAT policy and vanilla recovery —
/// the hook `repro ablations` uses to evaluate policy pieces
/// (no dual connectivity, stricter thresholds) in isolation.
pub fn run_custom_arm(policy: RatPolicyKind, cfg: &AbConfig) -> AbOutcome {
    run_arm(AbArm::Custom, policy, RecoveryConfig::vanilla(), cfg)
}

/// Fig. 19/20: the RAT-policy A/B on 5G phones.
pub fn run_rat_policy_ab(cfg: &AbConfig) -> (AbOutcome, AbOutcome) {
    let vanilla = run_arm(
        AbArm::VanillaAndroid10,
        RatPolicyKind::Android10,
        RecoveryConfig::vanilla(),
        cfg,
    );
    let patched = run_arm(
        AbArm::StabilityCompatible,
        RatPolicyKind::StabilityCompatible,
        RecoveryConfig::vanilla(),
        cfg,
    );
    (vanilla, patched)
}

/// Fig. 21: the recovery A/B (vanilla vs TIMP probations).
pub fn run_recovery_ab(cfg: &AbConfig) -> (AbOutcome, AbOutcome) {
    let vanilla = run_arm(
        AbArm::VanillaRecovery,
        RatPolicyKind::StabilityCompatible,
        RecoveryConfig::vanilla(),
        cfg,
    );
    let timp = run_arm(
        AbArm::TimpRecovery,
        RatPolicyKind::StabilityCompatible,
        RecoveryConfig::timp_optimized(),
        cfg,
    );
    (vanilla, timp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rat_policy_ab_reduces_failures() {
        let cfg = AbConfig {
            devices: 10,
            days: 2,
            seed: 11,
            stall_rate_per_hour: 2.0,
            suppress_user_reset: false,
            threads: 0,
        };
        let (vanilla, patched) = run_rat_policy_ab(&cfg);
        assert_eq!(vanilla.arm, AbArm::VanillaAndroid10);
        assert!(vanilla.frequency > 0.0, "vanilla arm saw no failures");
        // Fig. 20: fewer failures per device under the patched policy.
        assert!(
            patched.frequency < vanilla.frequency,
            "patched {} vs vanilla {}",
            patched.frequency,
            vanilla.frequency
        );
    }

    #[test]
    fn recovery_ab_shortens_stalls() {
        let cfg = AbConfig {
            devices: 8,
            days: 3,
            seed: 12,
            stall_rate_per_hour: 4.0,
            suppress_user_reset: true,
            threads: 0,
        };
        let (vanilla, timp) = run_recovery_ab(&cfg);
        assert!(
            vanilla.stall_durations.len() >= 10,
            "not enough stalls: {}",
            vanilla.stall_durations.len()
        );
        assert!(
            timp.mean_stall_secs() < vanilla.mean_stall_secs(),
            "timp {} vs vanilla {}",
            timp.mean_stall_secs(),
            vanilla.mean_stall_secs()
        );
    }

    #[test]
    fn outcome_statistics_are_consistent() {
        let cfg = AbConfig {
            devices: 6,
            days: 1,
            seed: 13,
            stall_rate_per_hour: 3.0,
            suppress_user_reset: false,
            threads: 0,
        };
        let (vanilla, _) = run_rat_policy_ab(&cfg);
        let total: u64 = vanilla.by_kind.iter().sum();
        assert_eq!(total as f64 / cfg.devices as f64, vanilla.frequency);
        assert!(vanilla.prevalence <= 1.0);
        assert_eq!(
            vanilla.by_kind[FailureKind::DataStall.index()] as usize,
            vanilla.stall_durations.len()
        );
    }

    #[test]
    fn arm_is_thread_count_invariant() {
        let base_cfg = AbConfig {
            devices: 6,
            days: 1,
            seed: 14,
            stall_rate_per_hour: 3.0,
            suppress_user_reset: false,
            threads: 1,
        };
        let base = run_custom_arm(RatPolicyKind::Android10, &base_cfg);
        assert!(base.frequency > 0.0, "base arm saw no failures");
        for threads in [2usize, 3, 8] {
            let cfg = AbConfig {
                threads,
                ..base_cfg
            };
            let o = run_custom_arm(RatPolicyKind::Android10, &cfg);
            assert_eq!(o.by_kind, base.by_kind, "threads={threads}");
            assert_eq!(o.stall_durations, base.stall_durations, "threads={threads}");
            assert_eq!(
                o.total_duration_secs, base.total_duration_secs,
                "threads={threads}"
            );
            assert_eq!(o.prevalence, base.prevalence, "threads={threads}");
            assert_eq!(o.frequency, base.frequency, "threads={threads}");
        }
    }
}
