//! The three-stage progressive Data_Stall recovery mechanism (§3.2, §4.2).
//!
//! When a stall is detected, Android waits out a *probation* window (hoping
//! the stall fixes itself), then executes the next recovery operation:
//!
//! 1. **cleanup** — tear down and re-establish the current connection;
//! 2. **re-register** — detach and re-attach to the network;
//! 3. **radio restart** — power-cycle the radio component.
//!
//! Vanilla Android uses fixed one-minute probations; the paper's TIMP
//! optimisation replaces them with (21 s, 6 s, 16 s). Both are just
//! [`RecoveryConfig`]s here — the engine is policy-free.
//!
//! The paper reports the first-stage operation alone fixes 75 % of stalls
//! once executed; later stages are progressively more effective (and more
//! expensive). Those effectiveness/cost numbers live in the config so
//! ablations (`repro ablations`) can sweep them.

use cellrel_sim::SimRng;
use cellrel_types::SimDuration;
use std::fmt;

/// One of the three progressive recovery operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Stage 1: clean up and re-establish the data connection.
    CleanupConnections,
    /// Stage 2: re-register into the network.
    Reregister,
    /// Stage 3: restart the radio component.
    RadioRestart,
}

impl RecoveryAction {
    /// Stage number 1..=3.
    pub(crate) const fn stage(self) -> u8 {
        match self {
            RecoveryAction::CleanupConnections => 1,
            RecoveryAction::Reregister => 2,
            RecoveryAction::RadioRestart => 3,
        }
    }
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryAction::CleanupConnections => "cleanup-connections",
            RecoveryAction::Reregister => "re-register",
            RecoveryAction::RadioRestart => "radio-restart",
        })
    }
}

/// Recovery-trigger configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Probation windows before each stage: `[Pro0, Pro1, Pro2]`.
    pub probations: [SimDuration; 3],
    /// Execution cost of each operation (`O1 < O2 < O3`, Eq. 1's overhead
    /// terms).
    pub op_cost: [SimDuration; 3],
    /// Probability each operation fixes the stall when executed
    /// (stage 1 = 0.75 per §3.2).
    pub op_success: [f64; 3],
}

impl RecoveryConfig {
    /// Vanilla Android: one-minute probations.
    pub fn vanilla() -> Self {
        RecoveryConfig {
            probations: [SimDuration::from_secs(60); 3],
            op_cost: Self::default_costs(),
            op_success: Self::default_success(),
        }
    }

    /// The paper's TIMP-optimised probations: 21 s, 6 s, 16 s (§4.2).
    pub fn timp_optimized() -> Self {
        Self::with_probations([21, 6, 16])
    }

    /// Custom probations (seconds), default costs/effectiveness.
    pub fn with_probations(secs: [u64; 3]) -> Self {
        RecoveryConfig {
            probations: secs.map(SimDuration::from_secs),
            op_cost: Self::default_costs(),
            op_success: Self::default_success(),
        }
    }

    /// Default operation costs (§4.2's `O1 < O2 < O3`). These are *full
    /// disruption* costs, not just execution latency: cleanup tears down
    /// every TCP connection and renegotiates the bearer (~12 s of effective
    /// outage for the user), re-registration adds the detach/attach cycle
    /// (~30 s), and a radio restart takes the modem through a cold start
    /// (~60 s). The disruption cost is what makes firing recovery on a
    /// 2-second transient a net loss — the trade-off the TIMP probations
    /// balance.
    pub(crate) fn default_costs() -> [SimDuration; 3] {
        [
            SimDuration::from_secs(12),
            SimDuration::from_secs(30),
            SimDuration::from_secs(60),
        ]
    }

    /// Default operation effectiveness: stage 1 fixes 75 % (§3.2), the
    /// heavier stages more.
    pub(crate) fn default_success() -> [f64; 3] {
        [0.75, 0.90, 0.97]
    }

    /// Sanity-check the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.probations.iter().any(|p| p.is_zero()) {
            return Err("probations must be positive".into());
        }
        if !(self.op_cost[0] < self.op_cost[1] && self.op_cost[1] < self.op_cost[2]) {
            return Err("operation costs must satisfy O1 < O2 < O3".into());
        }
        if self.op_success.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
            return Err("success probabilities must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// Where the engine stands in the recovery process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    /// Waiting out probation before executing stage `next` (0-based).
    Probation {
        next: usize,
    },
    /// All three stages executed without success.
    Exhausted,
}

/// The recovery engine: a small, explicit state machine the device agent
/// drives with timer events.
#[derive(Debug, Clone)]
pub struct RecoveryEngine {
    cfg: RecoveryConfig,
    phase: Phase,
    actions_executed: u32,
}

impl RecoveryEngine {
    /// Engine with the given trigger configuration.
    pub fn new(cfg: RecoveryConfig) -> Self {
        cfg.validate().expect("invalid recovery config");
        RecoveryEngine {
            cfg,
            phase: Phase::Idle,
            actions_executed: 0,
        }
    }

    /// Whether a recovery episode is in progress.
    pub fn active(&self) -> bool {
        !matches!(self.phase, Phase::Idle)
    }

    /// Whether all stages ran without clearing the stall.
    #[cfg(test)]
    pub(crate) fn exhausted(&self) -> bool {
        matches!(self.phase, Phase::Exhausted)
    }

    /// Total operations executed across all episodes.
    pub fn actions_executed(&self) -> u32 {
        self.actions_executed
    }

    /// A stall was detected: start the episode. Returns the first probation
    /// window (the caller schedules a timer for it).
    pub fn begin(&mut self) -> SimDuration {
        debug_assert!(!self.active(), "begin() while active");
        self.phase = Phase::Probation { next: 0 };
        self.cfg.probations[0]
    }

    /// A probation timer fired and the stall *still* persists: execute the
    /// next stage. Returns the action, whether it fixed the stall, and —
    /// if it didn't and stages remain — the next probation window.
    ///
    /// `fixable` is the caller's judgement of whether this stage's
    /// operation *can* fix the underlying condition at all: reconnecting a
    /// bearer never repairs a local firewall misconfiguration, but a radio
    /// restart does clear a wedged modem driver. When `false`, the
    /// operation executes (and costs what it costs) but cannot succeed.
    pub fn probation_expired(
        &mut self,
        fixable: bool,
        rng: &mut SimRng,
    ) -> (RecoveryAction, bool, Option<SimDuration>) {
        let Phase::Probation { next } = self.phase else {
            panic!("probation_expired while {:?}", self.phase);
        };
        let action = match next {
            0 => RecoveryAction::CleanupConnections,
            1 => RecoveryAction::Reregister,
            _ => RecoveryAction::RadioRestart,
        };
        self.actions_executed += 1;
        let fixed = fixable && rng.chance(self.cfg.op_success[next]);
        if fixed {
            self.phase = Phase::Idle;
            return (action, true, None);
        }
        if next + 1 < 3 {
            self.phase = Phase::Probation { next: next + 1 };
            (action, false, Some(self.cfg.probations[next + 1]))
        } else {
            self.phase = Phase::Exhausted;
            (action, false, None)
        }
    }

    /// The cost of the stage that would run next (for scheduling the
    /// post-operation check).
    #[cfg(test)]
    pub(crate) fn next_op_cost(&self) -> Option<SimDuration> {
        match self.phase {
            Phase::Probation { next } => Some(self.cfg.op_cost[next]),
            _ => None,
        }
    }

    /// The operation that will execute when the current probation expires.
    pub(crate) fn next_action(&self) -> Option<RecoveryAction> {
        match self.phase {
            Phase::Probation { next } => Some(match next {
                0 => RecoveryAction::CleanupConnections,
                1 => RecoveryAction::Reregister,
                _ => RecoveryAction::RadioRestart,
            }),
            _ => None,
        }
    }

    /// The stall cleared by itself (or by the user): abort the episode.
    pub(crate) fn stall_cleared(&mut self) {
        self.phase = Phase::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_config_is_one_minute() {
        let c = RecoveryConfig::vanilla();
        assert!(c
            .probations
            .iter()
            .all(|&p| p == SimDuration::from_secs(60)));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn timp_config_matches_paper() {
        let c = RecoveryConfig::timp_optimized();
        assert_eq!(c.probations[0], SimDuration::from_secs(21));
        assert_eq!(c.probations[1], SimDuration::from_secs(6));
        assert_eq!(c.probations[2], SimDuration::from_secs(16));
        assert!(c.validate().is_ok());
        // First-stage effectiveness is the paper's 75 %.
        assert!((c.op_success[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = RecoveryConfig::vanilla();
        c.probations[1] = SimDuration::ZERO;
        assert!(c.validate().is_err());

        let mut c = RecoveryConfig::vanilla();
        c.op_cost = [
            SimDuration::from_secs(3),
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        ];
        assert!(c.validate().is_err());

        let mut c = RecoveryConfig::vanilla();
        c.op_success[0] = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn full_episode_walks_three_stages() {
        // Force every stage to fail so all three execute.
        let mut cfg = RecoveryConfig::vanilla();
        cfg.op_success = [0.0, 0.0, 0.0];
        let mut eng = RecoveryEngine::new(cfg);
        let mut rng = SimRng::new(1);

        let p0 = eng.begin();
        assert_eq!(p0, SimDuration::from_secs(60));
        assert!(eng.active());

        let (a1, fixed, next) = eng.probation_expired(true, &mut rng);
        assert_eq!(a1, RecoveryAction::CleanupConnections);
        assert!(!fixed);
        assert_eq!(next, Some(SimDuration::from_secs(60)));

        let (a2, _, next) = eng.probation_expired(true, &mut rng);
        assert_eq!(a2, RecoveryAction::Reregister);
        assert_eq!(next, Some(SimDuration::from_secs(60)));

        let (a3, _, next) = eng.probation_expired(true, &mut rng);
        assert_eq!(a3, RecoveryAction::RadioRestart);
        assert_eq!(next, None);
        assert!(eng.exhausted());
        assert_eq!(eng.actions_executed(), 3);
    }

    #[test]
    fn certain_success_stops_after_stage_one() {
        let mut cfg = RecoveryConfig::vanilla();
        cfg.op_success = [1.0, 1.0, 1.0];
        let mut eng = RecoveryEngine::new(cfg);
        let mut rng = SimRng::new(2);
        eng.begin();
        let (a, fixed, next) = eng.probation_expired(true, &mut rng);
        assert_eq!(a, RecoveryAction::CleanupConnections);
        assert!(fixed);
        assert_eq!(next, None);
        assert!(!eng.active());
    }

    #[test]
    fn stall_cleared_aborts_episode() {
        let mut eng = RecoveryEngine::new(RecoveryConfig::vanilla());
        eng.begin();
        assert!(eng.active());
        eng.stall_cleared();
        assert!(!eng.active());
        assert_eq!(eng.actions_executed(), 0);
        // Can begin a fresh episode afterwards.
        eng.begin();
        assert!(eng.active());
    }

    #[test]
    fn next_op_cost_tracks_stage() {
        let mut cfg = RecoveryConfig::vanilla();
        cfg.op_success = [0.0, 0.0, 0.0];
        let mut eng = RecoveryEngine::new(cfg);
        let mut rng = SimRng::new(3);
        assert_eq!(eng.next_op_cost(), None);
        eng.begin();
        assert_eq!(eng.next_op_cost(), Some(RecoveryConfig::default_costs()[0]));
        eng.probation_expired(true, &mut rng);
        assert_eq!(eng.next_op_cost(), Some(RecoveryConfig::default_costs()[1]));
    }

    #[test]
    fn unfixable_conditions_never_succeed() {
        let mut eng = RecoveryEngine::new(RecoveryConfig::vanilla());
        let mut rng = SimRng::new(9);
        for _ in 0..200 {
            eng.begin();
            let (_, fixed, _) = eng.probation_expired(false, &mut rng);
            assert!(!fixed, "an unfixable condition was 'fixed'");
            eng.stall_cleared();
        }
    }

    #[test]
    fn custom_probation_triple_escalates_in_order() {
        // The probation returned at each step must be the *configured* value
        // for the stage about to wait, in order — an asymmetric triple makes
        // any off-by-one in the indexing visible.
        let mut cfg = RecoveryConfig::with_probations([5, 7, 9]);
        cfg.op_success = [0.0, 0.0, 0.0];
        let mut eng = RecoveryEngine::new(cfg);
        let mut rng = SimRng::new(11);

        assert_eq!(eng.begin(), SimDuration::from_secs(5));
        assert_eq!(eng.next_action(), Some(RecoveryAction::CleanupConnections));

        let (a, fixed, next) = eng.probation_expired(true, &mut rng);
        assert_eq!((a.stage(), fixed), (1, false));
        assert_eq!(next, Some(SimDuration::from_secs(7)));
        assert_eq!(eng.next_action(), Some(RecoveryAction::Reregister));

        let (a, fixed, next) = eng.probation_expired(true, &mut rng);
        assert_eq!((a.stage(), fixed), (2, false));
        assert_eq!(next, Some(SimDuration::from_secs(9)));
        assert_eq!(eng.next_action(), Some(RecoveryAction::RadioRestart));

        let (a, fixed, next) = eng.probation_expired(true, &mut rng);
        assert_eq!((a.stage(), fixed), (3, false));
        assert_eq!(next, None);
        assert!(eng.exhausted());
        assert_eq!(eng.next_action(), None);
        assert_eq!(eng.next_op_cost(), None);
    }

    #[test]
    fn mid_episode_success_resets_to_idle_and_restarts_at_stage_one() {
        // Fail stage 1, succeed at stage 2; the next episode must start
        // over at stage 1 with the first probation, not resume at stage 3.
        let mut cfg = RecoveryConfig::with_probations([5, 7, 9]);
        cfg.op_success = [0.0, 1.0, 1.0];
        let mut eng = RecoveryEngine::new(cfg);
        let mut rng = SimRng::new(12);

        eng.begin();
        let (_, fixed, _) = eng.probation_expired(true, &mut rng);
        assert!(!fixed);
        let (a, fixed, next) = eng.probation_expired(true, &mut rng);
        assert_eq!(a, RecoveryAction::Reregister);
        assert!(fixed);
        assert_eq!(next, None);
        assert!(!eng.active());
        assert!(!eng.exhausted());

        assert_eq!(eng.begin(), SimDuration::from_secs(5));
        assert_eq!(eng.next_action(), Some(RecoveryAction::CleanupConnections));
        assert_eq!(eng.actions_executed(), 2, "counter spans episodes");
    }

    #[test]
    fn exhaustion_then_clear_resets_the_ladder() {
        // After all three stages fail, the stall eventually clears (or the
        // user resets); stall_cleared() must take the engine out of
        // Exhausted so a fresh episode begins back at stage 1.
        let mut cfg = RecoveryConfig::vanilla();
        cfg.op_success = [0.0, 0.0, 0.0];
        let mut eng = RecoveryEngine::new(cfg);
        let mut rng = SimRng::new(13);

        eng.begin();
        for _ in 0..3 {
            eng.probation_expired(true, &mut rng);
        }
        assert!(eng.exhausted());
        assert!(eng.active(), "exhausted still counts as an open episode");

        eng.stall_cleared();
        assert!(!eng.active());
        assert!(!eng.exhausted());

        assert_eq!(eng.begin(), SimDuration::from_secs(60));
        let (a, _, _) = eng.probation_expired(true, &mut rng);
        assert_eq!(a, RecoveryAction::CleanupConnections);
        assert_eq!(eng.actions_executed(), 4);
    }

    #[test]
    fn stage_one_effectiveness_is_about_75_percent() {
        let mut eng = RecoveryEngine::new(RecoveryConfig::vanilla());
        let mut rng = SimRng::new(4);
        let mut fixed = 0;
        let n = 4000;
        for _ in 0..n {
            eng.begin();
            let (_, ok, _) = eng.probation_expired(true, &mut rng);
            if ok {
                fixed += 1;
            }
            eng.stall_cleared();
        }
        let rate = fixed as f64 / n as f64;
        assert!((rate - 0.75).abs() < 0.03, "stage-1 fix rate {rate}");
    }
}
