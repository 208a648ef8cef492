//! Legacy circuit-switched services: SMS and voice call setup.
//!
//! §3.1: the <1 % of failures that are not data-connection failures "are
//! mainly related to the traditional short message and voice call services
//! that are less frequently used today", e.g. `RIL_SMS_SEND_FAIL_RETRY`.
//! The enabling techniques "have been stable for nearly 20 years" — so the
//! model is deliberately simple and *reliable*: low per-attempt failure
//! probabilities, a bounded retry loop, and sensitivity only to the
//! signal level.

use crate::interference::RiskFactors;
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

/// Maximum send attempts per message (Android retries a few times).
const MAX_ATTEMPTS: u32 = 3;

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

/// One send attempt for a message that has already used `attempts_so_far`
/// attempts.
fn attempt_send(attempts_so_far: u32, rat: Rat, risk: &RiskFactors, rng: &mut SimRng) -> SmsResult {
    if rng.chance(sms_attempt_failure_prob(risk, rat)) {
        if attempts_so_far + 1 >= MAX_ATTEMPTS {
            SmsResult::Failed
        } else {
            SmsResult::RetryLater
        }
    } else {
        SmsResult::Sent
    }
}

/// Send one message with the retry loop collapsed (macro-style use):
/// returns the terminal result and the number of attempts consumed.
pub(crate) fn send_with_retries(
    rat: Rat,
    risk: &RiskFactors,
    rng: &mut SimRng,
) -> (SmsResult, u32) {
    for attempt in 0..MAX_ATTEMPTS {
        match attempt_send(attempt, rat, risk, rng) {
            SmsResult::RetryLater => continue,
            terminal => return (terminal, attempt + 1),
        }
    }
    (SmsResult::Failed, MAX_ATTEMPTS)
}

/// Attempt a voice call setup; `true` if it connects. Legacy CS voice
/// (2G/3G) is extremely reliable; VoLTE (4G/5G) couples to the data bearer
/// health.
pub(crate) fn attempt_call(
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
    !rng.chance(p_fail.min(0.9))
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
        let mut rng = SimRng::new(1);
        let delivered = (0..10_000)
            .filter(|_| send_with_retries(Rat::G2, &quiet(), &mut rng).0 == SmsResult::Sent)
            .count();
        assert!(delivered > 9_950, "delivered {delivered}/10000");
    }

    #[test]
    fn sms_failures_are_under_one_percent_of_cellular_failures() {
        // The <1 % bucket: even at poor signal, terminal SMS failures are
        // rare relative to data-connection failures at the same risk.
        let mut rng = SimRng::new(2);
        let (mut failures, mut retries) = (0, 0);
        for _ in 0..10_000 {
            let (result, attempts) = send_with_retries(Rat::G4, &dead_zone(), &mut rng);
            if result == SmsResult::Failed {
                failures += 1;
            }
            // Every attempt but the terminal one was a retry.
            retries += attempts - 1;
        }
        let terminal_rate = failures as f64 / 10_000.0;
        assert!(
            terminal_rate < 0.01,
            "terminal SMS failure rate {terminal_rate}"
        );
        assert!(retries > 0, "retries should occur at poor signal");
    }

    #[test]
    fn retry_budget_is_respected() {
        let mut rng = SimRng::new(3);
        // Force failures with a hostile risk to exercise the budget.
        let hostile = RiskFactors {
            signal_risk: 10.0, // clamps the per-attempt probability to 0.9
            ..dead_zone()
        };
        let (result, attempts) = send_with_retries(Rat::G4, &hostile, &mut rng);
        assert!(attempts <= MAX_ATTEMPTS);
        if result == SmsResult::Failed {
            assert_eq!(attempts, MAX_ATTEMPTS);
        }
    }

    #[test]
    fn attempt_send_reports_retry_before_budget() {
        // Failure outcomes are stochastic; sample until both failure
        // positions are observed and assert their classification.
        let mut rng = SimRng::new(4);
        let hostile = RiskFactors {
            signal_risk: 100.0, // clamps the per-attempt probability at 0.9
            ..dead_zone()
        };
        let mut saw_retry = false;
        let mut saw_failed = false;
        for _ in 0..200 {
            // First attempt of three: a failure must be RetryLater.
            match attempt_send(0, Rat::G4, &hostile, &mut rng) {
                SmsResult::RetryLater => saw_retry = true,
                SmsResult::Failed => panic!("first attempt may not be terminal"),
                SmsResult::Sent => {}
            }
            // Last attempt: a failure is terminal.
            match attempt_send(2, Rat::G4, &hostile, &mut rng) {
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
        let (mut cs, mut volte) = (0, 0);
        for _ in 0..20_000 {
            cs += u32::from(!attempt_call(Rat::G2, &risk, false, &mut rng));
            volte += u32::from(!attempt_call(Rat::G4, &risk, false, &mut rng));
        }
        assert!(volte > cs, "volte {volte} vs cs {cs}");
    }

    #[test]
    fn healthy_bearer_helps_volte() {
        let mut rng = SimRng::new(6);
        let risk = quiet();
        let (mut up, mut down) = (0, 0);
        for _ in 0..20_000 {
            up += u32::from(!attempt_call(Rat::G4, &risk, true, &mut rng));
            down += u32::from(!attempt_call(Rat::G4, &risk, false, &mut rng));
        }
        assert!(down > up);
    }
}
