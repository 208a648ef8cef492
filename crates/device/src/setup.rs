//! The staged data-call setup pipeline.
//!
//! §2.1: a setup "may occur at the physical layer (e.g., radio signal loss),
//! the data link or MAC layer (e.g., device authentication failure), and/or
//! the network layer (e.g., IP address allocation failure)". The pipeline
//! walks those stages in protocol order; each stage fails with the causes
//! that genuinely originate there, with probabilities driven by the cell's
//! [`RiskFactors`]. Rational overload rejections are evaluated *first* and
//! produce false-positive-class causes — the noise the monitor must filter.

use crate::emm::EmmStateMachine;
use crate::fault::FaultProfile;
use crate::interference::RiskFactors;
use cellrel_sim::SimRng;
use cellrel_types::{DataFailCause, FailureLayer, Rat, SignalLevel};

/// Run one data-call setup attempt through the staged pipeline.
///
/// `emm` carries registration state across attempts (retries interact with
/// barring streaks, as in the real stack).
pub(crate) fn run_setup(
    rat: Rat,
    level: SignalLevel,
    risk: &RiskFactors,
    emm: &mut EmmStateMachine,
    powered: bool,
    fault: &FaultProfile,
    rng: &mut SimRng,
) -> Result<(), DataFailCause> {
    // Device-local precondition.
    if !powered {
        return Err(DataFailCause::RadioPowerOff);
    }
    if let Some(cause) = fault.forced_cause {
        return Err(cause);
    }
    let scale = fault.scale();

    // Stage 0 — rational rejection by an overloaded BS (false positive).
    if fault.force_overload || rng.chance((risk.overload_prob * scale).min(1.0)) {
        let overload_causes = [
            (DataFailCause::InsufficientResources, 0.60),
            (DataFailCause::RrcReleaseCongestion, 0.25),
            (DataFailCause::ServiceOptionOutOfOrder, 0.15),
        ];
        return Err(pick(&overload_causes, rng));
    }

    // Stage 1 — physical layer.
    let mut p_phys = 0.45 * risk.signal_risk * scale + fault.extra_failure_prob;
    if risk.disrepair {
        p_phys += 0.25;
    }
    if rng.chance(p_phys.min(0.9)) {
        return Err(physical_cause(rat, level, rng));
    }

    // Stage 2 — mobility management (attach, then service request). The EMM
    // machine's internal probabilities already scale with `risk`.
    emm.attach(rat, risk, rng)?;
    emm.service_request(risk, rng)?;

    // Stage 3 — data-link / MAC.
    let p_link = (0.05 * (1.0 + risk.interference) * (risk.signal_risk / 0.32) * scale).min(0.6);
    if rng.chance(p_link) {
        return Err(link_cause(rat, rng));
    }

    // Stage 4 — network layer (PDP/PDN activation, IP allocation).
    let p_net = (0.04 * (1.0 + 1.5 * risk.interference + risk.emm_pressure) * scale).min(0.6);
    if rng.chance(p_net) {
        return Err(network_cause(rng));
    }

    Ok(())
}

/// The telemetry counter a failed setup attempt lands in, by the cause's
/// class: false-positive causes (the stage-0 overload rejections and
/// user-initiated teardowns the monitor filters) in one bucket, true
/// failures by the protocol layer they originate from (stages 1–4 of the
/// pipeline). Static labels so the hot path never allocates.
pub(crate) fn setup_fail_counter(cause: DataFailCause) -> &'static str {
    if cause.false_positive().is_some() {
        return "modem.setup.fail.fp";
    }
    match cause.layer() {
        FailureLayer::Physical => "modem.setup.fail.physical",
        FailureLayer::LinkMac => "modem.setup.fail.link_mac",
        FailureLayer::Network => "modem.setup.fail.network",
        FailureLayer::Modem => "modem.setup.fail.modem",
        FailureLayer::Unknown => "modem.setup.fail.unknown",
    }
}

/// Physical-layer cause mix, conditioned on RAT and signal level.
fn physical_cause(rat: Rat, level: SignalLevel, rng: &mut SimRng) -> DataFailCause {
    // At level 0 the dominant symptom is simply "no service".
    let no_service_boost = if level == SignalLevel::L0 { 0.35 } else { 0.0 };
    match rat {
        Rat::G2 => pick(
            &[
                (DataFailCause::SignalLost, 0.40),
                (DataFailCause::NoService, 0.30 + no_service_boost),
                (DataFailCause::MaxAccessProbe, 0.20),
                (DataFailCause::CdmaIntercept, 0.10),
            ],
            rng,
        ),
        Rat::G3 => pick(
            &[
                (DataFailCause::SignalLost, 0.35),
                (DataFailCause::NoService, 0.25 + no_service_boost),
                (DataFailCause::NoHybridHdrService, 0.20),
                (DataFailCause::MaxAccessProbe, 0.15),
                (DataFailCause::CdmaReleaseSoReject, 0.05),
            ],
            rng,
        ),
        Rat::G4 | Rat::G5 => pick(
            &[
                (DataFailCause::SignalLost, 0.45),
                (DataFailCause::NoService, 0.35 + no_service_boost),
                (DataFailCause::RandomAccessFailure, 0.20),
            ],
            rng,
        ),
    }
}

/// Link/MAC-layer cause mix: PPP dominates on legacy RATs, RRC on LTE/NR.
fn link_cause(rat: Rat, rng: &mut SimRng) -> DataFailCause {
    match rat {
        Rat::G2 | Rat::G3 => pick(
            &[
                (DataFailCause::PppTimeout, 0.60),
                (DataFailCause::UserAuthentication, 0.15),
                (DataFailCause::LlcSndcpFailure, 0.25),
            ],
            rng,
        ),
        Rat::G4 | Rat::G5 => pick(
            &[
                (DataFailCause::RrcConnectionFailure, 0.55),
                (DataFailCause::PppTimeout, 0.25),
                (DataFailCause::UserAuthentication, 0.20),
            ],
            rng,
        ),
    }
}

/// Network-layer cause mix.
fn network_cause(rng: &mut SimRng) -> DataFailCause {
    pick(
        &[
            (DataFailCause::PdpLowerlayerError, 0.28),
            (DataFailCause::ActivationRejectGgsn, 0.18),
            (DataFailCause::Ipv4AddressAllocationFail, 0.18),
            (DataFailCause::SetupTimeout, 0.16),
            (DataFailCause::ActivationRejectUnspecified, 0.10),
            (DataFailCause::QosNotAccepted, 0.06),
            (DataFailCause::NetworkFailure, 0.04),
        ],
        rng,
    )
}

fn pick(table: &[(DataFailCause, f64)], rng: &mut SimRng) -> DataFailCause {
    let weights: Vec<f64> = table.iter().map(|(_, w)| *w).collect();
    table[rng.weighted_index(&weights)].0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> RiskFactors {
        RiskFactors {
            signal_risk: 0.022,
            interference: 0.05,
            overload_prob: 0.0,
            emm_pressure: 0.05,
            disrepair: false,
        }
    }

    fn hostile() -> RiskFactors {
        RiskFactors {
            signal_risk: 0.32,
            interference: 0.9,
            overload_prob: 0.3,
            emm_pressure: 0.9,
            disrepair: false,
        }
    }

    fn attempt(risk: &RiskFactors, rng: &mut SimRng) -> Result<(), DataFailCause> {
        let mut emm = EmmStateMachine::new();
        run_setup(
            Rat::G4,
            SignalLevel::L3,
            risk,
            &mut emm,
            true,
            &FaultProfile::none(),
            rng,
        )
    }

    #[test]
    fn quiet_cell_mostly_succeeds() {
        let mut rng = SimRng::new(1);
        let ok = (0..2000)
            .filter(|_| attempt(&quiet(), &mut rng).is_ok())
            .count();
        assert!(ok > 1750, "quiet cell succeeded only {ok}/2000");
    }

    #[test]
    fn hostile_cell_mostly_fails() {
        let mut rng = SimRng::new(2);
        let ok = (0..2000)
            .filter(|_| attempt(&hostile(), &mut rng).is_ok())
            .count();
        assert!(ok < 1000, "hostile cell succeeded {ok}/2000");
    }

    #[test]
    fn power_and_sim_preconditions() {
        let mut rng = SimRng::new(3);
        let mut emm = EmmStateMachine::new();
        let err = run_setup(
            Rat::G4,
            SignalLevel::L3,
            &quiet(),
            &mut emm,
            false,
            &FaultProfile::none(),
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err, DataFailCause::RadioPowerOff);
    }

    #[test]
    fn forced_cause_wins() {
        let mut rng = SimRng::new(4);
        let mut emm = EmmStateMachine::new();
        let err = run_setup(
            Rat::G4,
            SignalLevel::L5,
            &quiet(),
            &mut emm,
            true,
            &FaultProfile::forcing(DataFailCause::ForbiddenPlmn),
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err, DataFailCause::ForbiddenPlmn);
    }

    #[test]
    fn forced_overload_yields_false_positive_cause() {
        let mut rng = SimRng::new(5);
        let fault = FaultProfile {
            force_overload: true,
            ..FaultProfile::none()
        };
        let mut emm = EmmStateMachine::new();
        let err = run_setup(
            Rat::G4,
            SignalLevel::L4,
            &quiet(),
            &mut emm,
            true,
            &fault,
            &mut rng,
        )
        .unwrap_err();
        assert!(err.false_positive().is_some(), "{err} should be a FP cause");
    }

    #[test]
    fn failure_causes_match_their_layers() {
        use cellrel_types::FailureLayer;
        let mut rng = SimRng::new(6);
        let mut layers_seen = std::collections::HashSet::new();
        for _ in 0..4000 {
            if let Err(c) = attempt(&hostile(), &mut rng) {
                layers_seen.insert(c.layer());
            }
        }
        assert!(layers_seen.contains(&FailureLayer::Physical));
        assert!(layers_seen.contains(&FailureLayer::Network));
        assert!(layers_seen.contains(&FailureLayer::LinkMac));
    }

    #[test]
    fn legacy_rats_produce_legacy_causes() {
        let mut rng = SimRng::new(7);
        let risk = hostile();
        let mut causes = std::collections::HashSet::new();
        for _ in 0..4000 {
            let mut emm = EmmStateMachine::new();
            if let Err(c) = run_setup(
                Rat::G3,
                SignalLevel::L1,
                &risk,
                &mut emm,
                true,
                &FaultProfile::none(),
                &mut rng,
            ) {
                causes.insert(c);
            }
        }
        assert!(causes.contains(&DataFailCause::NoHybridHdrService));
        assert!(causes.contains(&DataFailCause::GprsRegistrationFail));
    }

    #[test]
    fn hazard_scale_increases_failures() {
        let mut rng = SimRng::new(8);
        let risk = quiet();
        let run = |fault: FaultProfile, rng: &mut SimRng| {
            (0..2000)
                .filter(|_| {
                    let mut emm = EmmStateMachine::new();
                    run_setup(Rat::G4, SignalLevel::L3, &risk, &mut emm, true, &fault, rng).is_err()
                })
                .count()
        };
        let base = run(FaultProfile::none(), &mut rng);
        let scaled = run(FaultProfile::scaled(5.0), &mut rng);
        assert!(scaled > base * 2, "scaled {scaled} vs base {base}");
    }
}
