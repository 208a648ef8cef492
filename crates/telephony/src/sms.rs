//! Legacy circuit-switched services: SMS and voice call setup.
//!
//! §3.1: the <1 % of failures that are not data-connection failures "are
//! mainly related to the traditional short message and voice call services
//! that are less frequently used today", e.g. `RIL_SMS_SEND_FAIL_RETRY`.
//! The enabling techniques "have been stable for nearly 20 years" — so the
//! model is deliberately simple and *reliable*: low per-attempt failure
//! probabilities, a bounded retry loop, and sensitivity only to the
//! signal level.

use cellrel_radio::RiskFactors;
use cellrel_sim::SimRng;
use cellrel_types::Rat;

/// Result of an SMS submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SmsResult {
    /// Delivered to the SMSC.
    Sent,
    /// Transient failure; Android schedules a retry
    /// (`RIL_SMS_SEND_FAIL_RETRY`).
    RetryLater,
    /// Gave up after the retry budget.
    Failed,
}

/// The SMS service: a small retry state machine per message.
#[derive(Debug, Clone)]
pub(crate) struct SmsService {
    /// Maximum send attempts per message (Android retries a few times).
    pub max_attempts: u32,
    sent: u64,
    retries: u64,
    failures: u64,
}

impl Default for SmsService {
    fn default() -> Self {
        SmsService {
            max_attempts: 3,
            sent: 0,
            retries: 0,
            failures: 0,
        }
    }
}

/// Per-attempt SMS failure probability: low, signal-driven, and slightly
/// worse over packet-switched IMS paths when signal is marginal.
fn sms_attempt_failure_prob(risk: &RiskFactors, rat: Rat) -> f64 {
    let base = 0.004 + 0.05 * risk.signal_risk;
    let rat_factor = match rat {
        Rat::G2 | Rat::G3 => 1.0, // native CS SMS: battle-tested
        Rat::G4 | Rat::G5 => 1.2, // SMS-over-IMS adds moving parts
    };
    (base * rat_factor).min(0.9)
}

impl SmsService {
    /// A fresh service.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Messages delivered.
    #[cfg(test)]
    pub(crate) fn sent(&self) -> u64 {
        self.sent
    }

    /// Retry events (each maps to one `RIL_SMS_SEND_FAIL_RETRY`).
    #[cfg(test)]
    pub(crate) fn retries(&self) -> u64 {
        self.retries
    }

    /// Messages abandoned after the retry budget.
    #[cfg(test)]
    pub(crate) fn failures(&self) -> u64 {
        self.failures
    }

    /// One send attempt for a message that has already used
    /// `attempts_so_far` attempts.
    pub(crate) fn attempt_send(
        &mut self,
        attempts_so_far: u32,
        rat: Rat,
        risk: &RiskFactors,
        rng: &mut SimRng,
    ) -> SmsResult {
        if rng.chance(sms_attempt_failure_prob(risk, rat)) {
            if attempts_so_far + 1 >= self.max_attempts {
                self.failures += 1;
                SmsResult::Failed
            } else {
                self.retries += 1;
                SmsResult::RetryLater
            }
        } else {
            self.sent += 1;
            SmsResult::Sent
        }
    }

    /// Send with the full internal retry loop collapsed (macro-style use):
    /// returns the terminal result and the number of attempts consumed.
    pub(crate) fn send_with_retries(
        &mut self,
        rat: Rat,
        risk: &RiskFactors,
        rng: &mut SimRng,
    ) -> (SmsResult, u32) {
        for attempt in 0..self.max_attempts {
            match self.attempt_send(attempt, rat, risk, rng) {
                SmsResult::RetryLater => continue,
                terminal => return (terminal, attempt + 1),
            }
        }
        (SmsResult::Failed, self.max_attempts)
    }
}

/// Voice call setup over the circuit-switched (or VoLTE) path.
#[derive(Debug, Clone, Default)]
pub(crate) struct VoiceService {
    setups: u64,
    failures: u64,
}

impl VoiceService {
    /// A fresh service.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Failed call setups.
    #[cfg(test)]
    pub(crate) fn failures(&self) -> u64 {
        self.failures
    }

    /// Attempt a call setup. Legacy CS voice is extremely reliable; VoLTE
    /// (4G/5G) couples to the data bearer health.
    pub(crate) fn attempt_call(
        &mut self,
        rat: Rat,
        risk: &RiskFactors,
        data_bearer_up: bool,
        rng: &mut SimRng,
    ) -> bool {
        let p_fail = match rat {
            Rat::G2 | Rat::G3 => 0.002 + 0.03 * risk.signal_risk,
            Rat::G4 | Rat::G5 => {
                let volte_penalty = if data_bearer_up { 0.0 } else { 0.05 };
                0.004 + 0.05 * risk.signal_risk + volte_penalty
            }
        };
        if rng.chance(p_fail.min(0.9)) {
            self.failures += 1;
            false
        } else {
            self.setups += 1;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> RiskFactors {
        RiskFactors {
            signal_risk: 0.022,
            interference: 0.0,
            overload_prob: 0.0,
            emm_pressure: 0.0,
            disrepair: false,
        }
    }

    fn dead_zone() -> RiskFactors {
        RiskFactors {
            signal_risk: 0.32,
            interference: 0.6,
            overload_prob: 0.0,
            emm_pressure: 0.4,
            disrepair: false,
        }
    }

    #[test]
    fn sms_is_overwhelmingly_reliable_on_good_signal() {
        let mut svc = SmsService::new();
        let mut rng = SimRng::new(1);
        let mut delivered = 0;
        for _ in 0..10_000 {
            let (r, _) = svc.send_with_retries(Rat::G2, &quiet(), &mut rng);
            if r == SmsResult::Sent {
                delivered += 1;
            }
        }
        assert!(delivered > 9_950, "delivered {delivered}/10000");
        assert_eq!(svc.sent(), delivered);
    }

    #[test]
    fn sms_failures_are_under_one_percent_of_cellular_failures() {
        // The <1 % bucket: even at poor signal, terminal SMS failures are
        // rare relative to data-connection failures at the same risk.
        let mut svc = SmsService::new();
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            let _ = svc.send_with_retries(Rat::G4, &dead_zone(), &mut rng);
        }
        let terminal_rate = svc.failures() as f64 / 10_000.0;
        assert!(
            terminal_rate < 0.01,
            "terminal SMS failure rate {terminal_rate}"
        );
        assert!(svc.retries() > 0, "retries should occur at poor signal");
    }

    #[test]
    fn retry_budget_is_respected() {
        let mut svc = SmsService::new();
        let mut rng = SimRng::new(3);
        // Force failures with a hostile risk to exercise the budget.
        let hostile = RiskFactors {
            signal_risk: 10.0, // clamps the per-attempt probability to 0.9
            ..dead_zone()
        };
        let (result, attempts) = svc.send_with_retries(Rat::G4, &hostile, &mut rng);
        assert!(attempts <= svc.max_attempts);
        if result == SmsResult::Failed {
            assert_eq!(attempts, svc.max_attempts);
        }
    }

    #[test]
    fn attempt_send_reports_retry_before_budget() {
        // Failure outcomes are stochastic; sample until both failure
        // positions are observed and assert their classification.
        let mut svc = SmsService::new();
        let mut rng = SimRng::new(4);
        let hostile = RiskFactors {
            signal_risk: 100.0, // clamps the per-attempt probability at 0.9
            ..dead_zone()
        };
        let mut saw_retry = false;
        let mut saw_failed = false;
        for _ in 0..200 {
            // First attempt of three: a failure must be RetryLater.
            match svc.attempt_send(0, Rat::G4, &hostile, &mut rng) {
                SmsResult::RetryLater => saw_retry = true,
                SmsResult::Failed => panic!("first attempt may not be terminal"),
                SmsResult::Sent => {}
            }
            // Last attempt: a failure is terminal.
            match svc.attempt_send(2, Rat::G4, &hostile, &mut rng) {
                SmsResult::Failed => saw_failed = true,
                SmsResult::RetryLater => panic!("last attempt may not retry"),
                SmsResult::Sent => {}
            }
        }
        assert!(saw_retry && saw_failed);
    }

    #[test]
    fn legacy_cs_voice_more_reliable_than_volte_without_bearer() {
        let mut rng = SimRng::new(5);
        let risk = dead_zone();
        let mut cs = VoiceService::new();
        let mut volte = VoiceService::new();
        for _ in 0..20_000 {
            cs.attempt_call(Rat::G2, &risk, false, &mut rng);
            volte.attempt_call(Rat::G4, &risk, false, &mut rng);
        }
        assert!(
            volte.failures() > cs.failures(),
            "volte {} vs cs {}",
            volte.failures(),
            cs.failures()
        );
    }

    #[test]
    fn healthy_bearer_helps_volte() {
        let mut rng = SimRng::new(6);
        let risk = quiet();
        let mut up = VoiceService::new();
        let mut down = VoiceService::new();
        for _ in 0..20_000 {
            up.attempt_call(Rat::G4, &risk, true, &mut rng);
            down.attempt_call(Rat::G4, &risk, false, &mut rng);
        }
        assert!(down.failures() > up.failures());
    }
}
