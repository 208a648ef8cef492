//! The per-device discrete-event agent.
//!
//! [`DeviceSim`] wires the whole stack together — radio environment, modem,
//! network stack, `DcTracker`, stall detector, recovery engine, RAT policy —
//! and runs one device's life as a discrete-event simulation:
//!
//! * periodic cell scans + RAT (re)selection under the configured policy,
//!   with handover hazards on transitions;
//! * app traffic feeding the kernel TCP counters;
//! * world-injected stall conditions (network blackholes plus the
//!   false-positive classes) with natural-heal times;
//! * the vanilla stall detector and the three-stage recovery engine;
//! * user behaviour: manual resets after ~30 s of stall (the §3.2
//!   tolerance), occasional voice-call interruptions;
//! * Out_of_Service episodes.
//!
//! Every observable is emitted through [`TelephonyListener`] — the exact
//! surface Android-MOD instruments.

use crate::dc_tracker::{DcTracker, RetryPolicy, SetupVerdict};
use crate::events::{TelephonyEvent, TelephonyListener};
use crate::rat_policy::{RatPolicyKind, RatSelectionPolicy};
use crate::recovery::{RecoveryAction, RecoveryConfig, RecoveryEngine};
use crate::service_state::ServiceStateTracker;
use crate::stall::DataStallDetector;
use cellrel_modem::Modem;
use cellrel_netstack::{LinkCondition, NetStack};
use cellrel_radio::{CellView, Pos, RadioEnvironment, RiskFactors};
use cellrel_sim::{span, EventHandler, EventToken, SimRng, Telemetry, TimerWheel};
use cellrel_types::{
    Apn, DeviceId, InSituInfo, Isp, Rat, RatSet, ServiceState, SimDuration, SimTime,
};

/// How a device moves across the map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityProfile {
    /// Never moves (the default).
    Stationary,
    /// Commutes between home and a work location on a day/night schedule —
    /// the pattern that stresses mobility management (TAU, handover).
    Commuter {
        /// Daytime location.
        work: Pos,
    },
    /// Random walk within a radius of home.
    Roamer {
        /// Walk radius, km.
        radius_km: f64,
    },
}

/// Events driving one device's simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldEvent {
    /// Periodic cell scan + RAT selection.
    ScanAndSelect,
    /// Attempt (or re-attempt) the data-call setup.
    SetupAttempt,
    /// Periodic application traffic burst.
    AppTraffic,
    /// The vanilla stall detector's poll tick.
    StallPoll,
    /// The world injects a stall-like condition on the link.
    StallInject(LinkCondition),
    /// The injected condition heals by itself.
    StallNaturalHeal,
    /// A recovery probation window expired.
    ProbationExpired,
    /// The user loses patience and resets the data connection.
    UserManualReset,
    /// An incoming circuit-switched voice call (CSFB disruption).
    VoiceCall,
    /// The user sends an SMS.
    SmsSend,
    /// The device moves (per its mobility profile).
    Move,
    /// The screen/usage state toggles (active ↔ idle).
    ScreenToggle,
    /// An Out_of_Service episode begins.
    OosInject,
    /// The Out_of_Service episode ends.
    OosHeal,
}

/// Static configuration of one simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Device identity.
    pub id: DeviceId,
    /// Subscribed ISP.
    pub isp: Isp,
    /// Home position on the map.
    pub home: Pos,
    /// RATs the hardware supports.
    pub rats: RatSet,
    /// RAT selection policy.
    pub policy: RatPolicyKind,
    /// Recovery trigger configuration.
    pub recovery: RecoveryConfig,
    /// Base Data_Stall hazard (injections per hour on a nominal cell);
    /// scaled by the serving cell's risk multiplier.
    pub stall_rate_per_hour: f64,
    /// Probability an injected condition is one of the false-positive
    /// classes rather than a network blackhole.
    pub fp_condition_prob: f64,
    /// Out_of_Service hazard scale (multiplies the cell's hazard).
    pub oos_scale: f64,
    /// Cell scan cadence.
    pub scan_interval: SimDuration,
    /// App traffic cadence while connected.
    pub traffic_interval: SimDuration,
    /// Median of the user's manual-reset tolerance (~30 s per §3.2).
    pub user_reset_median_secs: f64,
    /// Voice calls per hour (CSFB interruption source on 2G/3G).
    pub voice_calls_per_hour: f64,
    /// SMS sends per hour.
    pub sms_per_hour: f64,
    /// Mobility profile.
    pub mobility: MobilityProfile,
    /// Cadence of mobility updates.
    pub move_interval: SimDuration,
    /// Fraction of time the device is actively used (1.0 = always).
    /// While idle there is no app traffic, so stalls go *undetected* —
    /// Android's Data_Stall rule needs outbound segments to trip.
    pub screen_active_fraction: f64,
}

impl DeviceConfig {
    /// A reasonable default device on ISP-A at the given position.
    pub fn new(id: DeviceId, isp: Isp, home: Pos) -> Self {
        DeviceConfig {
            id,
            isp,
            home,
            rats: RatSet::up_to(Rat::G4),
            policy: RatPolicyKind::Android9,
            recovery: RecoveryConfig::vanilla(),
            stall_rate_per_hour: 0.35,
            fp_condition_prob: 0.12,
            oos_scale: 1.0,
            scan_interval: SimDuration::from_secs(20),
            traffic_interval: SimDuration::from_secs(4),
            user_reset_median_secs: 30.0,
            voice_calls_per_hour: 0.15,
            sms_per_hour: 0.4,
            mobility: MobilityProfile::Stationary,
            move_interval: SimDuration::from_mins(15),
            screen_active_fraction: 1.0,
        }
    }
}

/// Aggregate counters a device keeps about itself (cheap cross-checks for
/// the monitor's view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Setup failures reported (raw, unfiltered).
    pub setup_errors: u64,
    /// Successful setups.
    pub setup_successes: u64,
    /// Stall rising edges detected.
    pub stalls_detected: u64,
    /// Stalls cleared.
    pub stalls_cleared: u64,
    /// Recovery operations executed.
    pub recovery_actions: u64,
    /// Manual resets by the user.
    pub manual_resets: u64,
    /// Out_of_Service episodes.
    pub oos_episodes: u64,
    /// RAT transitions.
    pub rat_changes: u64,
    /// Voice-call interruptions.
    pub voice_interruptions: u64,
    /// SMS sends that terminally failed.
    pub sms_failures: u64,
    /// Voice setups that failed.
    pub voice_setup_failures: u64,
    /// Mobility updates performed.
    pub moves: u64,
    /// Tracking-area updates attempted (significant moves).
    pub tau_attempts: u64,
    /// Tracking-area updates that failed.
    pub tau_failures: u64,
}

/// One live stall episode (ground truth + bookkeeping).
#[derive(Debug, Clone, Copy)]
struct StallEpisode {
    onset: SimTime,
    condition: LinkCondition,
    /// When the vanilla detector first saw the stall.
    detected_at: Option<SimTime>,
    /// When the link actually healed (ground truth).
    healed_at: Option<SimTime>,
    heal_token: Option<EventToken>,
    reset_token: Option<EventToken>,
}

/// The device agent. Borrows the shared radio environment; owns everything
/// else.
pub struct DeviceSim<'a, L: TelephonyListener> {
    cfg: DeviceConfig,
    env: &'a RadioEnvironment,
    listener: L,
    rng: SimRng,
    pos: Pos,
    modem: Modem,
    stack: NetStack,
    tracker: DcTracker,
    detector: DataStallDetector,
    recovery: RecoveryEngine,
    sst: ServiceStateTracker,
    policy: Box<dyn RatSelectionPolicy>,
    stats: DeviceStats,
    stall: Option<StallEpisode>,
    probation_token: Option<EventToken>,
    oos_heal_token: Option<EventToken>,
    serving_risk: Option<RiskFactors>,
    setup_pending: bool,
    sms: crate::sms::SmsService,
    voice: crate::sms::VoiceService,
    screen_active: bool,
    tele: Telemetry,
    /// While true (the default) the world keeps injecting faults. Campaign
    /// drivers flip it off via [`DeviceSim::quiesce`] so a scenario can end
    /// in a fault-free grace period.
    injection_enabled: bool,
}

impl<'a, L: TelephonyListener> DeviceSim<'a, L> {
    /// Build the agent and prime the event queue with its recurring events.
    pub fn new(
        cfg: DeviceConfig,
        env: &'a RadioEnvironment,
        listener: L,
        rng: SimRng,
        queue: &mut TimerWheel<WorldEvent>,
    ) -> Self {
        let policy = cfg.policy.build();
        let recovery = RecoveryEngine::new(cfg.recovery);
        let mut sim = DeviceSim {
            pos: cfg.home,
            env,
            listener,
            rng,
            modem: Modem::new(),
            stack: NetStack::new(),
            tracker: DcTracker::new(Apn::Internet, RetryPolicy::default()),
            detector: DataStallDetector::default(),
            recovery,
            sst: ServiceStateTracker::new(),
            policy,
            stats: DeviceStats::default(),
            stall: None,
            probation_token: None,
            oos_heal_token: None,
            serving_risk: None,
            setup_pending: false,
            sms: crate::sms::SmsService::new(),
            voice: crate::sms::VoiceService::new(),
            screen_active: true,
            tele: Telemetry::disabled(),
            injection_enabled: true,
            cfg,
        };
        queue.schedule_at(SimTime::ZERO, WorldEvent::ScanAndSelect);
        queue.schedule_after(sim.cfg.traffic_interval, WorldEvent::AppTraffic);
        queue.schedule_after(sim.detector.poll_interval(), WorldEvent::StallPoll);
        sim.schedule_next_stall_injection(queue);
        sim.schedule_next_oos(queue);
        sim.schedule_next_voice_call(queue);
        sim.schedule_next_sms(queue);
        if sim.cfg.mobility != MobilityProfile::Stationary {
            queue.schedule_after(sim.cfg.move_interval, WorldEvent::Move);
        }
        if sim.cfg.screen_active_fraction < 1.0 {
            sim.schedule_screen_toggle(queue);
        }
        sim
    }

    /// Attach a telemetry handle, shared down the stack: the agent's own
    /// event mirror, the modem's per-stage setup outcomes and the
    /// data-connection FSM's state-transition counters all record into the
    /// same registry. The default handle is disabled, making every
    /// recording call a single no-op branch.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.modem.set_telemetry(tele.clone());
        self.tracker.set_telemetry(tele.clone());
        self.tele = tele;
    }

    /// The device's aggregate counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// The listener (to retrieve recorded events after a run).
    pub fn listener(&self) -> &L {
        &self.listener
    }

    /// Consume the agent, returning its listener.
    pub fn into_listener(self) -> L {
        self.listener
    }

    /// Current position.
    pub fn position(&self) -> Pos {
        self.pos
    }

    /// The modem (tests).
    pub fn modem(&self) -> &Modem {
        &self.modem
    }

    /// The recovery engine (campaign invariants).
    pub fn recovery(&self) -> &RecoveryEngine {
        &self.recovery
    }

    /// The vanilla stall detector (campaign invariants).
    pub fn detector(&self) -> &DataStallDetector {
        &self.detector
    }

    /// The device's network stack (campaign invariants).
    pub fn netstack(&self) -> &NetStack {
        &self.stack
    }

    /// The service-state tracker (campaign invariants).
    pub fn service_state(&self) -> &ServiceStateTracker {
        &self.sst
    }

    /// The device's static configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Stop the world from injecting further faults, and accelerate any
    /// live fault so it heals *now* (through the ordinary heal events, so
    /// listeners observe the regular clear sequence). After this, the
    /// device must drain back to healthy service — [`Self::wedged_reason`]
    /// checks that it did.
    pub fn quiesce(&mut self, queue: &mut TimerWheel<WorldEvent>) {
        self.injection_enabled = false;
        if let Some(ep) = &mut self.stall {
            if let Some(tok) = ep.heal_token.take() {
                queue.cancel(tok);
            }
            queue.schedule_at(queue.now(), WorldEvent::StallNaturalHeal);
        }
        if self.sst.in_outage() {
            if let Some(tok) = self.oos_heal_token.take() {
                queue.cancel(tok);
            }
            queue.schedule_at(queue.now(), WorldEvent::OosHeal);
        }
    }

    /// After faults have cleared and the device has had time to drain, is
    /// anything still wedged? `None` means fully recovered: healthy link,
    /// no open stall episode, detector and recovery engine idle, in
    /// service, and a data call either up or reachable through the retry
    /// machinery. The campaign's "no device permanently wedged" invariant
    /// is exactly this check at scenario end.
    pub fn wedged_reason(&self) -> Option<String> {
        if self.stack.link() != LinkCondition::Healthy {
            return Some(format!("link still {:?}", self.stack.link()));
        }
        if let Some(ep) = &self.stall {
            return Some(format!("stall episode still open (onset {:?})", ep.onset));
        }
        if self.detector.is_stalled() {
            return Some("stall detector still latched".into());
        }
        if self.recovery.active() {
            return Some("recovery engine still mid-episode".into());
        }
        if self.sst.state() != ServiceState::InService {
            return Some(format!("service state {:?}", self.sst.state()));
        }
        if self.modem.call().is_none() && !self.setup_pending && !self.tracker.can_attempt() {
            return Some("no data call and no retry path left".into());
        }
        None
    }

    fn emit(&mut self, at: SimTime, ev: TelephonyEvent) {
        if self.tele.is_enabled() {
            self.record_event(at, &ev);
        }
        self.listener.on_event(at, &ev);
    }

    /// Mirror one emitted telephony event into the metrics registry —
    /// static labels only, so the mirror never allocates. Durations carried
    /// by closing events become sim-time spans: the stall span runs from
    /// *detection* to heal and the outage span from loss to recovery, both
    /// exactly the quantities the paper's Figs. 4 and 10 measure.
    fn record_event(&mut self, at: SimTime, ev: &TelephonyEvent) {
        let tid = self.cfg.id.0 as u64;
        match ev {
            TelephonyEvent::DataSetupError { .. } => {
                self.tele.inc("telephony.setup.error");
                self.tele.instant("telephony.setup.error", at, tid);
            }
            TelephonyEvent::DataSetupSuccess { .. } => self.tele.inc("telephony.setup.success"),
            TelephonyEvent::OutOfServiceBegan { .. } => self.tele.inc("telephony.oos.began"),
            TelephonyEvent::OutOfServiceEnded { duration, .. } => {
                self.tele.inc("telephony.oos.ended");
                let start =
                    SimTime::from_millis(at.as_millis().saturating_sub(duration.as_millis()));
                span!(self.tele, "telephony.oos.outage", start, tid).end(at);
            }
            TelephonyEvent::DataStallSuspected { .. } => {
                self.tele.inc("telephony.stall.suspected");
                self.tele.instant("telephony.stall.suspected", at, tid);
            }
            TelephonyEvent::DataStallCleared { .. } => self.tele.inc("telephony.stall.cleared"),
            TelephonyEvent::RecoveryActionExecuted { stage, fixed } => {
                self.tele.inc(match stage {
                    1 => "telephony.recovery.stage1",
                    2 => "telephony.recovery.stage2",
                    _ => "telephony.recovery.stage3",
                });
                if *fixed {
                    self.tele.inc("telephony.recovery.fixed");
                }
            }
            TelephonyEvent::ManualReset => self.tele.inc("telephony.manual_reset"),
            TelephonyEvent::VoiceCallInterruption => self.tele.inc("telephony.voice.interruption"),
            TelephonyEvent::RatChanged { .. } => self.tele.inc("telephony.rat.changed"),
            TelephonyEvent::SmsSendFailed { .. } => self.tele.inc("telephony.sms.send_fail"),
            TelephonyEvent::VoiceSetupFailed { .. } => self.tele.inc("telephony.voice.setup_fail"),
        }
    }

    fn in_situ(&self, view: Option<&CellView>) -> InSituInfo {
        match view.or_else(|| self.modem.serving()) {
            Some(v) => InSituInfo {
                rat: v.rat,
                signal: v.level,
                apn: Apn::Internet,
                bs: Some(self.env.bs(v.bs).id),
                isp: self.cfg.isp,
            },
            None => InSituInfo {
                rat: self.cfg.rats.highest().unwrap_or(Rat::G4),
                signal: cellrel_types::SignalLevel::L0,
                apn: Apn::Internet,
                bs: None,
                isp: self.cfg.isp,
            },
        }
    }

    // ---- recurring-event scheduling -------------------------------------

    fn schedule_next_stall_injection(&mut self, queue: &mut TimerWheel<WorldEvent>) {
        let mult = self
            .serving_risk
            .map(|r| r.stall_rate_multiplier())
            .unwrap_or(1.0);
        // Ambient load (and with it the stall hazard) follows the day:
        // rush hours are the worst, deep night the calmest.
        let hour = queue.now().as_secs_f64() / 3600.0;
        let diurnal = cellrel_radio::load::diurnal_factor(hour);
        let rate = (self.cfg.stall_rate_per_hour * mult * diurnal).max(1e-6);
        let wait = SimDuration::from_secs_f64(self.rng.exp(3600.0 / rate).max(1.0));
        let condition = if self.rng.chance(self.cfg.fp_condition_prob) {
            *self.rng.choose(&[
                LinkCondition::FirewallMisconfig,
                LinkCondition::BrokenProxy,
                LinkCondition::ModemDriverFault,
                LinkCondition::DnsOutage,
            ])
        } else {
            LinkCondition::NetworkBlackhole
        };
        queue.schedule_after(wait, WorldEvent::StallInject(condition));
    }

    fn schedule_next_oos(&mut self, queue: &mut TimerWheel<WorldEvent>) {
        let hazard = self
            .serving_risk
            .map(|r| r.out_of_service_hazard())
            .unwrap_or(0.004)
            * self.cfg.oos_scale;
        let wait = SimDuration::from_secs_f64(self.rng.exp(3600.0 / hazard.max(1e-6)).max(5.0));
        queue.schedule_after(wait, WorldEvent::OosInject);
    }

    fn schedule_next_voice_call(&mut self, queue: &mut TimerWheel<WorldEvent>) {
        if self.cfg.voice_calls_per_hour <= 0.0 {
            return;
        }
        let wait = SimDuration::from_secs_f64(
            self.rng
                .exp(3600.0 / self.cfg.voice_calls_per_hour)
                .max(10.0),
        );
        queue.schedule_after(wait, WorldEvent::VoiceCall);
    }

    fn schedule_next_sms(&mut self, queue: &mut TimerWheel<WorldEvent>) {
        if self.cfg.sms_per_hour <= 0.0 {
            return;
        }
        let wait =
            SimDuration::from_secs_f64(self.rng.exp(3600.0 / self.cfg.sms_per_hour).max(10.0));
        queue.schedule_after(wait, WorldEvent::SmsSend);
    }

    /// Natural heal time for an injected stall condition: a log-normal body
    /// (most stalls self-heal within seconds — Fig. 10: 60 % within 10 s)
    /// plus a Pareto tail for the stubborn ones.
    fn draw_heal_delay(&mut self, condition: LinkCondition) -> SimDuration {
        let secs = if condition.is_system_side() {
            // Device-side misconfigurations persist until fixed: long.
            self.rng.lognormal(5.5, 1.0) // median ~245 s
        } else if self.rng.chance(0.9) {
            self.rng.lognormal(1.9, 1.1) // median ~6.7 s body
        } else {
            self.rng.pareto(30.0, 1.1).min(90_000.0) // heavy tail
        };
        SimDuration::from_secs_f64(secs.max(0.5))
    }

    // ---- event handlers ---------------------------------------------------

    fn handle_scan(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        let views = self.env.scan_salted(
            self.pos,
            self.cfg.isp,
            self.cfg.rats,
            self.cfg.id.0 as u64 + 1,
            &mut self.rng,
        );
        let current = self.modem.serving().map(|v| v.rat);
        let selected = self.policy.select(&views, current).copied();

        match selected {
            None => {
                // No coverage at all.
                if self.modem.call().is_some() {
                    self.tracker.connection_lost(
                        &mut self.modem,
                        now,
                        cellrel_types::DataFailCause::SignalLost,
                    );
                }
                let oos = self.sst.update(now, ServiceState::OutOfService);
                if oos.is_none() && self.sst.in_outage() {
                    // freshly entered handled in update(); nothing more here
                }
            }
            Some(view) => {
                let rat_changed = current != Some(view.rat);
                let risk = self.env.risk(&view);
                if rat_changed {
                    if self.modem.call().is_some() {
                        // Transition with an active call: handover. Under
                        // dual connectivity the target's control plane was
                        // pre-established at an earlier scan (see below), so
                        // the modem treats a standby-matched target as a
                        // cheap reconfiguration.
                        match self.modem.handover(view, &risk, &mut self.rng) {
                            Ok(()) => {}
                            Err(cause) => {
                                self.tracker.reset(now);
                                self.stats.setup_errors += 1;
                                let ctx = self.in_situ(Some(&view));
                                self.emit(now, TelephonyEvent::DataSetupError { cause, ctx });
                                self.request_setup(now, queue);
                            }
                        }
                    } else {
                        self.modem.camp_on(view);
                    }
                    self.stats.rat_changes += 1;
                    self.emit(
                        now,
                        TelephonyEvent::RatChanged {
                            from: current,
                            to: view.rat,
                        },
                    );
                } else if self.modem.call().is_none() {
                    self.modem.camp_on(view);
                }
                // Dual connectivity: hold the other of the 4G/5G pair as a
                // prepared secondary cell group so the *next* transition is
                // cheap (3GPP TS 37.340).
                if self.policy.dual_connectivity() {
                    let other = match view.rat {
                        Rat::G4 => Some(Rat::G5),
                        Rat::G5 => Some(Rat::G4),
                        _ => None,
                    };
                    match other.and_then(|r| views.iter().find(|v| v.rat == r)) {
                        Some(&standby) => self.modem.prepare_standby(standby),
                        None => self.modem.clear_standby(),
                    }
                }
                self.serving_risk = Some(risk);
                // Back in coverage: close any outage.
                if let Some(d) = self.sst.update(now, ServiceState::InService) {
                    let ctx = self.in_situ(Some(&view));
                    self.emit(now, TelephonyEvent::OutOfServiceEnded { duration: d, ctx });
                }
                // Ensure a connection exists / is being built.
                if self.modem.call().is_none() {
                    self.request_setup(now, queue);
                }
            }
        }
        queue.schedule_after(self.cfg.scan_interval, WorldEvent::ScanAndSelect);
    }

    fn request_setup(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        if self.setup_pending || !self.tracker.can_attempt() {
            return;
        }
        self.setup_pending = true;
        queue.schedule_at(now, WorldEvent::SetupAttempt);
    }

    fn handle_setup_attempt(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        self.setup_pending = false;
        if self.modem.call().is_some() || !self.tracker.can_attempt() {
            return;
        }
        let Some(view) = self.modem.serving().copied() else {
            return; // not camped; the next scan will retry
        };
        let risk = self.env.risk(&view);
        self.tele.inc("telephony.setup.attempt");
        match self
            .tracker
            .attempt_setup(&mut self.modem, &risk, now, &mut self.rng)
        {
            SetupVerdict::Connected => {
                self.stats.setup_successes += 1;
                let ctx = self.in_situ(Some(&view));
                self.emit(now, TelephonyEvent::DataSetupSuccess { ctx });
            }
            SetupVerdict::RetryAfter(delay, cause) => {
                self.stats.setup_errors += 1;
                self.tele.inc("telephony.setup.retry");
                let ctx = self.in_situ(Some(&view));
                self.emit(now, TelephonyEvent::DataSetupError { cause, ctx });
                self.setup_pending = true;
                queue.schedule_after(delay, WorldEvent::SetupAttempt);
            }
            SetupVerdict::GaveUp(cause) => {
                self.stats.setup_errors += 1;
                self.tele.inc("telephony.setup.gave_up");
                let ctx = self.in_situ(Some(&view));
                self.emit(now, TelephonyEvent::DataSetupError { cause, ctx });
                // Next scan may pick a different cell and retry from scratch.
            }
        }
    }

    fn handle_app_traffic(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        if self.screen_active && self.modem.call().is_some() && self.sst.state().data_possible() {
            let burst = 8 + self.rng.index(20);
            self.stack.app_exchange(now, burst);
        }
        queue.schedule_after(self.cfg.traffic_interval, WorldEvent::AppTraffic);
    }

    fn handle_stall_poll(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        match self.detector.poll(now, &mut self.stack) {
            Some(true) => {
                self.stats.stalls_detected += 1;
                if let Some(ep) = &mut self.stall {
                    ep.detected_at = Some(now);
                }
                let condition = self.stack.link();
                let ctx = self.in_situ(None);
                self.emit(now, TelephonyEvent::DataStallSuspected { ctx, condition });
                // Kick off the three-stage recovery engine.
                if !self.recovery.active() {
                    let probation = self.recovery.begin(now);
                    self.probation_token =
                        Some(queue.schedule_after(probation, WorldEvent::ProbationExpired));
                }
            }
            Some(false) => {
                self.finish_stall(now, queue);
            }
            None => {}
        }
        queue.schedule_after(self.detector.poll_interval(), WorldEvent::StallPoll);
    }

    /// Close out the current stall episode (predicate fell). The reported
    /// duration is detection → heal — the span Android (and the monitor's
    /// probing) can observe; pre-detection time is invisible to the device.
    fn finish_stall(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        if let Some(ep) = self.stall.take() {
            if let Some(detected_at) = ep.detected_at {
                debug_assert!(detected_at >= ep.onset, "detection precedes onset");
                self.stats.stalls_cleared += 1;
                let healed = ep.healed_at.unwrap_or(now).max(detected_at);
                let duration = healed.since(detected_at);
                // The detect→recover span — what TIMP's probation tuning
                // shortens, and what the monitor's probing estimates.
                span!(
                    self.tele,
                    "telephony.stall.recover",
                    detected_at,
                    self.cfg.id.0 as u64
                )
                .end(healed);
                let ctx = self.in_situ(None);
                self.emit(
                    now,
                    TelephonyEvent::DataStallCleared {
                        duration,
                        ctx,
                        condition: ep.condition,
                    },
                );
            }
        }
        if self.recovery.active() {
            self.recovery.stall_cleared();
        }
        self.cancel_probation(queue);
    }

    /// Drop any pending probation timer *and its queued event*. Merely
    /// forgetting the token would leave a stale `ProbationExpired` in the
    /// queue, which could execute a recovery stage early in a later
    /// episode — exactly the regression the campaign's probation invariant
    /// watches for.
    fn cancel_probation(&mut self, queue: &mut TimerWheel<WorldEvent>) {
        if let Some(tok) = self.probation_token.take() {
            queue.cancel(tok);
        }
    }

    fn handle_stall_inject(
        &mut self,
        now: SimTime,
        condition: LinkCondition,
        queue: &mut TimerWheel<WorldEvent>,
    ) {
        if !self.injection_enabled {
            return; // quiesced: no new faults, and stop rescheduling
        }
        // Only one condition at a time; re-injection while stalled just
        // reschedules the next injection.
        if self.stall.is_none() && self.modem.call().is_some() {
            self.stack.set_link(condition);
            let heal = self.draw_heal_delay(condition);
            let heal_token = queue.schedule_after(heal, WorldEvent::StallNaturalHeal);
            // The user notices the stall (if it is user-visible: inbound
            // stops) and resets after their tolerance.
            let reset_token = if condition.delivers_inbound() {
                None
            } else {
                let tolerance = SimDuration::from_secs_f64(
                    self.rng
                        .lognormal(self.cfg.user_reset_median_secs.ln(), 0.5)
                        .max(5.0),
                );
                Some(queue.schedule_after(tolerance, WorldEvent::UserManualReset))
            };
            self.stall = Some(StallEpisode {
                onset: now,
                condition,
                detected_at: None,
                healed_at: None,
                heal_token: Some(heal_token),
                reset_token,
            });
        }
        self.schedule_next_stall_injection(queue);
    }

    fn heal_link(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        self.stack.set_link(LinkCondition::Healthy);
        if let Some(ep) = &mut self.stall {
            ep.healed_at.get_or_insert(now);
            if let Some(tok) = ep.heal_token.take() {
                queue.cancel(tok);
            }
            if let Some(tok) = ep.reset_token.take() {
                queue.cancel(tok);
            }
        }
        // Refresh counters promptly so the next poll observes the falling
        // edge: exchange a small burst now.
        if self.modem.call().is_some() {
            self.stack.reset_counters();
            self.stack.app_exchange(now, 3);
        }
    }

    fn handle_natural_heal(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        if self.stall.is_some() {
            self.heal_link(now, queue);
            if self
                .stall
                .as_ref()
                .is_some_and(|ep| ep.detected_at.is_none())
            {
                // Healed before the detector ever fired: silent episode.
                self.stall = None;
                if self.recovery.active() {
                    self.recovery.stall_cleared();
                }
                self.cancel_probation(queue);
            } else {
                self.finish_stall(now, queue);
            }
        }
    }

    fn handle_probation_expired(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        self.probation_token = None;
        if !self.recovery.active() {
            return;
        }
        // Android re-checks before acting: the stall may have self-healed.
        if !self.stack.stall_detected(now) {
            self.recovery.stall_cleared();
            return;
        }
        // What the next stage *can* fix depends on the underlying
        // condition: bearer-level operations cannot repair device-side
        // misconfigurations, but a radio restart clears a wedged driver.
        let condition = self
            .stall
            .as_ref()
            .map(|ep| ep.condition)
            .unwrap_or(LinkCondition::NetworkBlackhole);
        let action_pending = self
            .recovery
            .next_action()
            .expect("active recovery has a pending action");
        let fixable = action_can_fix(condition, action_pending);
        let (action, fixed, next_probation) =
            self.recovery.probation_expired(fixable, &mut self.rng);
        debug_assert_eq!(action, action_pending);
        self.stats.recovery_actions += 1;
        self.apply_recovery_action(now, action, queue);
        self.emit(
            now,
            TelephonyEvent::RecoveryActionExecuted {
                stage: action.stage(),
                fixed,
            },
        );
        if fixed {
            self.heal_link(now, queue);
            self.finish_stall(now, queue);
        } else if let Some(p) = next_probation {
            self.probation_token = Some(queue.schedule_after(p, WorldEvent::ProbationExpired));
        }
    }

    fn apply_recovery_action(
        &mut self,
        now: SimTime,
        action: RecoveryAction,
        queue: &mut TimerWheel<WorldEvent>,
    ) {
        match action {
            RecoveryAction::CleanupConnections => {
                self.tracker.disconnect(&mut self.modem, now);
                self.stack.reset_counters();
                self.detector.reset();
                self.request_setup(now, queue);
            }
            RecoveryAction::Reregister => {
                if let Some(risk) = self.serving_risk {
                    let _ = self.modem.reregister(&risk, &mut self.rng);
                }
                self.tracker.reset(now);
                self.stack.reset_counters();
                self.detector.reset();
                self.request_setup(now, queue);
            }
            RecoveryAction::RadioRestart => {
                self.modem.restart();
                self.tracker.reset(now);
                self.stack.reset_counters();
                self.detector.reset();
                // Radio restart requires a fresh scan to camp again; the
                // periodic scan will rebuild the connection.
            }
        }
    }

    fn handle_manual_reset(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        let Some(ep) = &mut self.stall else { return };
        ep.reset_token = None;
        self.stats.manual_resets += 1;
        self.emit(now, TelephonyEvent::ManualReset);
        // Toggling data tears the bearer down and rebuilds it. That fixes
        // most network-side blackholes (fresh bearer) but not device-side
        // misconfigurations.
        let fix_prob = if self
            .stall
            .as_ref()
            .is_some_and(|e| e.condition.is_system_side())
        {
            0.25
        } else {
            0.85
        };
        self.tracker.disconnect(&mut self.modem, now);
        self.tracker.reset(now);
        self.stack.reset_counters();
        self.detector.reset();
        if self.rng.chance(fix_prob) {
            self.heal_link(now, queue);
            self.finish_stall(now, queue);
        }
        self.request_setup(now, queue);
    }

    /// Alternate active/idle periods whose mean lengths realise the
    /// configured active fraction (mean cycle: 30 minutes).
    fn schedule_screen_toggle(&mut self, queue: &mut TimerWheel<WorldEvent>) {
        let cycle_secs = 1800.0;
        let frac = self.cfg.screen_active_fraction.clamp(0.01, 0.99);
        let mean = if self.screen_active {
            cycle_secs * frac
        } else {
            cycle_secs * (1.0 - frac)
        };
        let wait = SimDuration::from_secs_f64(self.rng.exp(mean).max(5.0));
        queue.schedule_after(wait, WorldEvent::ScreenToggle);
    }

    fn handle_screen_toggle(&mut self, queue: &mut TimerWheel<WorldEvent>) {
        self.screen_active = !self.screen_active;
        self.schedule_screen_toggle(queue);
    }

    fn handle_move(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        let next = match self.cfg.mobility {
            MobilityProfile::Stationary => self.pos,
            MobilityProfile::Commuter { work } => {
                // Day/night schedule with jitter: at work 09–18 local time.
                let hour = (now.as_secs() / 3600) % 24;
                let target = if (9..18).contains(&hour) {
                    work
                } else {
                    self.cfg.home
                };
                target.offset(self.rng.normal(0.0, 0.2), self.rng.normal(0.0, 0.2))
            }
            MobilityProfile::Roamer { radius_km } => self.cfg.home.offset(
                self.rng.normal(0.0, radius_km / 2.0),
                self.rng.normal(0.0, radius_km / 2.0),
            ),
        };
        let moved_km = next.distance_km(self.pos);
        self.pos = next;
        self.stats.moves += 1;
        // A significant move crosses tracking areas: run a TAU. Failures
        // drop the data call (stale EMM state); the retry machinery and the
        // next scan rebuild it.
        if moved_km > 0.5 {
            if let Some(risk) = self.serving_risk {
                self.stats.tau_attempts += 1;
                if self
                    .modem
                    .tracking_area_update(&risk, &mut self.rng)
                    .is_err()
                {
                    self.stats.tau_failures += 1;
                    self.tracker.reset(now);
                    self.request_setup(now, queue);
                }
            }
        }
        queue.schedule_after(self.cfg.move_interval, WorldEvent::Move);
    }

    fn handle_sms_send(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        if let (Some(view), Some(risk)) = (self.modem.serving().copied(), self.serving_risk) {
            let (result, _attempts) = self.sms.send_with_retries(view.rat, &risk, &mut self.rng);
            if result == crate::sms::SmsResult::Failed {
                self.stats.sms_failures += 1;
                let ctx = self.in_situ(Some(&view));
                self.emit(now, TelephonyEvent::SmsSendFailed { ctx });
            }
        }
        self.schedule_next_sms(queue);
    }

    fn handle_voice_call(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        // Attempt the call setup itself (CS on 2G/3G, VoLTE on 4G/5G).
        if let (Some(view), Some(risk)) = (self.modem.serving().copied(), self.serving_risk) {
            let ok = self.voice.attempt_call(
                view.rat,
                &risk,
                self.modem.call().is_some(),
                &mut self.rng,
            );
            if !ok {
                self.stats.voice_setup_failures += 1;
                let ctx = self.in_situ(Some(&view));
                self.emit(now, TelephonyEvent::VoiceSetupFailed { ctx });
                self.schedule_next_voice_call(queue);
                return;
            }
        }
        // CS-fallback: on 2G/3G the data bearer is suspended by the call —
        // a classic instrumentation false positive.
        let on_legacy = self
            .modem
            .serving()
            .map(|v| matches!(v.rat, Rat::G2 | Rat::G3))
            .unwrap_or(false);
        if on_legacy && self.modem.call().is_some() {
            self.stats.voice_interruptions += 1;
            self.emit(now, TelephonyEvent::VoiceCallInterruption);
            self.tracker.connection_lost(
                &mut self.modem,
                now,
                cellrel_types::DataFailCause::TetheredCallActive,
            );
            self.request_setup(now, queue);
        }
        self.schedule_next_voice_call(queue);
    }

    fn handle_oos_inject(&mut self, now: SimTime, queue: &mut TimerWheel<WorldEvent>) {
        if !self.injection_enabled {
            return; // quiesced: no new outages, and stop rescheduling
        }
        if self.sst.state() == ServiceState::InService {
            self.stats.oos_episodes += 1;
            self.sst.update(now, ServiceState::OutOfService);
            let ctx = self.in_situ(None);
            self.emit(now, TelephonyEvent::OutOfServiceBegan { ctx });
            // Outage duration: minutes-scale log-normal; disrepair sites
            // produce the multi-hour tail.
            let disrepair = self.serving_risk.map(|r| r.disrepair).unwrap_or(false);
            let secs = if disrepair {
                self.rng.lognormal(8.0, 1.2).min(92_000.0) // median ~50 min
            } else {
                self.rng.lognormal(4.2, 1.0) // median ~67 s
            };
            self.oos_heal_token = Some(queue.schedule_after(
                SimDuration::from_secs_f64(secs.max(2.0)),
                WorldEvent::OosHeal,
            ));
        }
        self.schedule_next_oos(queue);
    }

    fn handle_oos_heal(&mut self, now: SimTime) {
        self.oos_heal_token = None;
        if let Some(d) = self.sst.update(now, ServiceState::InService) {
            let ctx = self.in_situ(None);
            self.emit(now, TelephonyEvent::OutOfServiceEnded { duration: d, ctx });
        }
    }
}

/// Whether a recovery operation can fix the given link condition at all.
/// Network-side blackholes yield to any bearer-level intervention; a wedged
/// modem driver only yields to a radio restart; local misconfigurations
/// (firewall, proxy) and upstream DNS outages yield to none of them.
fn action_can_fix(condition: LinkCondition, action: RecoveryAction) -> bool {
    match condition {
        LinkCondition::Healthy | LinkCondition::NetworkBlackhole => true,
        LinkCondition::ModemDriverFault => action == RecoveryAction::RadioRestart,
        LinkCondition::FirewallMisconfig
        | LinkCondition::BrokenProxy
        | LinkCondition::DnsOutage => false,
    }
}

impl<'a, L: TelephonyListener> EventHandler<WorldEvent> for DeviceSim<'a, L> {
    fn handle(&mut self, at: SimTime, event: WorldEvent, queue: &mut TimerWheel<WorldEvent>) {
        match event {
            WorldEvent::ScanAndSelect => self.handle_scan(at, queue),
            WorldEvent::SetupAttempt => self.handle_setup_attempt(at, queue),
            WorldEvent::AppTraffic => self.handle_app_traffic(at, queue),
            WorldEvent::StallPoll => self.handle_stall_poll(at, queue),
            WorldEvent::StallInject(c) => self.handle_stall_inject(at, c, queue),
            WorldEvent::StallNaturalHeal => self.handle_natural_heal(at, queue),
            WorldEvent::ProbationExpired => self.handle_probation_expired(at, queue),
            WorldEvent::UserManualReset => self.handle_manual_reset(at, queue),
            WorldEvent::VoiceCall => self.handle_voice_call(at, queue),
            WorldEvent::SmsSend => self.handle_sms_send(at, queue),
            WorldEvent::Move => self.handle_move(at, queue),
            WorldEvent::ScreenToggle => self.handle_screen_toggle(queue),
            WorldEvent::OosInject => self.handle_oos_inject(at, queue),
            WorldEvent::OosHeal => self.handle_oos_heal(at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RecordingListener;
    use cellrel_radio::DeploymentConfig;

    fn run_device(
        mut cfg: DeviceConfig,
        hours: u64,
        seed: u64,
    ) -> (DeviceStats, Vec<(SimTime, TelephonyEvent)>) {
        let mut world_rng = SimRng::new(seed);
        let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut world_rng);
        cfg.home = env.city_centers()[0];
        let mut queue = TimerWheel::new();
        let mut dev = DeviceSim::new(
            cfg,
            &env,
            RecordingListener::default(),
            world_rng.fork(1),
            &mut queue,
        );
        queue.run_until(&mut dev, SimTime::from_secs(hours * 3600));
        let stats = *dev.stats();
        (stats, dev.into_listener().log)
    }

    fn base_cfg() -> DeviceConfig {
        DeviceConfig::new(DeviceId(1), Isp::A, Pos::new(0.0, 0.0))
    }

    #[test]
    fn device_connects_and_exchanges_traffic() {
        let (stats, log) = run_device(base_cfg(), 2, 42);
        assert!(
            stats.setup_successes > 0,
            "device never connected: {stats:?}"
        );
        assert!(log
            .iter()
            .any(|(_, e)| matches!(e, TelephonyEvent::DataSetupSuccess { .. })));
    }

    #[test]
    fn stalls_are_detected_and_cleared() {
        let mut cfg = base_cfg();
        cfg.stall_rate_per_hour = 6.0; // force plenty of stalls
        let (stats, log) = run_device(cfg, 12, 43);
        assert!(stats.stalls_detected > 3, "{stats:?}");
        assert!(stats.stalls_cleared > 0, "{stats:?}");
        // Every cleared stall carries a positive duration.
        for (_, e) in &log {
            if let TelephonyEvent::DataStallCleared { duration, .. } = e {
                assert!(!duration.is_zero());
            }
        }
    }

    #[test]
    fn cleared_never_exceeds_detected() {
        let mut cfg = base_cfg();
        cfg.stall_rate_per_hour = 6.0;
        let (stats, _) = run_device(cfg, 8, 44);
        assert!(stats.stalls_cleared <= stats.stalls_detected);
    }

    #[test]
    fn recovery_actions_fire_under_vanilla_probations() {
        let mut cfg = base_cfg();
        cfg.stall_rate_per_hour = 8.0;
        // Suppress the user so recovery gets a chance.
        cfg.user_reset_median_secs = 100_000.0;
        let (stats, log) = run_device(cfg, 24, 45);
        assert!(stats.recovery_actions > 0, "{stats:?}");
        assert!(log
            .iter()
            .any(|(_, e)| matches!(e, TelephonyEvent::RecoveryActionExecuted { .. })));
    }

    #[test]
    fn users_reset_before_vanilla_recovery_usually() {
        // §3.2: with one-minute probations, the ~30 s user tolerance fires
        // first for most stalls.
        let mut cfg = base_cfg();
        cfg.stall_rate_per_hour = 6.0;
        let (stats, _) = run_device(cfg, 24, 46);
        assert!(
            stats.manual_resets > stats.recovery_actions,
            "manual {} vs recovery {}",
            stats.manual_resets,
            stats.recovery_actions
        );
    }

    #[test]
    fn timp_recovery_cuts_stall_durations() {
        let mut vanilla = base_cfg();
        vanilla.stall_rate_per_hour = 6.0;
        vanilla.user_reset_median_secs = 100_000.0;
        let mut timp = vanilla.clone();
        timp.recovery = RecoveryConfig::timp_optimized();

        let mean_duration = |log: &[(SimTime, TelephonyEvent)]| {
            let durs: Vec<f64> = log
                .iter()
                .filter_map(|(_, e)| match e {
                    TelephonyEvent::DataStallCleared {
                        duration,
                        condition,
                        ..
                    } if !condition.is_system_side() => Some(duration.as_secs_f64()),
                    _ => None,
                })
                .collect();
            assert!(durs.len() > 5, "not enough stalls: {}", durs.len());
            durs.iter().sum::<f64>() / durs.len() as f64
        };

        let (_, log_v) = run_device(vanilla, 48, 47);
        let (_, log_t) = run_device(timp, 48, 47);
        let mv = mean_duration(&log_v);
        let mt = mean_duration(&log_t);
        assert!(
            mt < mv,
            "TIMP probations must shorten stalls: vanilla {mv:.1}s vs timp {mt:.1}s"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (s1, l1) = run_device(base_cfg(), 6, 99);
        let (s2, l2) = run_device(base_cfg(), 6, 99);
        assert_eq!(s1, s2);
        assert_eq!(l1.len(), l2.len());
    }

    #[test]
    fn fp_conditions_surface_in_stall_events() {
        let mut cfg = base_cfg();
        cfg.stall_rate_per_hour = 8.0;
        cfg.fp_condition_prob = 0.9;
        let (_, log) = run_device(cfg, 24, 48);
        let fp_stalls = log
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e,
                    TelephonyEvent::DataStallSuspected { condition, .. }
                    if *condition != LinkCondition::NetworkBlackhole
                )
            })
            .count();
        assert!(fp_stalls > 0, "expected some FP-condition stalls");
    }

    #[test]
    fn commuters_move_and_exercise_mobility_management() {
        let mut world_rng = SimRng::new(77);
        let env =
            RadioEnvironment::generate(cellrel_radio::DeploymentConfig::small(), &mut world_rng);
        let mut cfg = base_cfg();
        cfg.home = env.city_centers()[0];
        let work = env.city_centers()[1 % env.city_centers().len()].offset(1.0, 0.5);
        cfg.mobility = MobilityProfile::Commuter { work };
        let mut queue = TimerWheel::new();
        let mut dev = DeviceSim::new(
            cfg,
            &env,
            RecordingListener::default(),
            world_rng.fork(1),
            &mut queue,
        );
        queue.run_until(&mut dev, SimTime::from_secs(48 * 3600));
        let stats = *dev.stats();
        assert!(stats.moves > 50, "commuter never moved: {stats:?}");
        // Crossing the map twice a day runs tracking-area updates; whether
        // any *fails* is stochastic, so assert on attempts.
        assert!(stats.tau_attempts > 2, "no TAUs attempted: {stats:?}");
    }

    #[test]
    fn roamers_wander_but_stationary_devices_do_not() {
        let mut world_rng = SimRng::new(78);
        let env =
            RadioEnvironment::generate(cellrel_radio::DeploymentConfig::small(), &mut world_rng);
        let mut cfg = base_cfg();
        cfg.home = env.city_centers()[0];
        cfg.mobility = MobilityProfile::Roamer { radius_km: 3.0 };
        let mut queue = TimerWheel::new();
        let mut dev = DeviceSim::new(
            cfg,
            &env,
            RecordingListener::default(),
            world_rng.fork(1),
            &mut queue,
        );
        queue.run_until(&mut dev, SimTime::from_secs(6 * 3600));
        assert!(dev.stats().moves > 10);

        let mut cfg2 = base_cfg();
        cfg2.home = env.city_centers()[0];
        let mut queue2 = TimerWheel::new();
        let mut still = DeviceSim::new(
            cfg2,
            &env,
            RecordingListener::default(),
            world_rng.fork(2),
            &mut queue2,
        );
        queue2.run_until(&mut still, SimTime::from_secs(6 * 3600));
        assert_eq!(still.stats().moves, 0);
    }

    #[test]
    fn idle_screens_hide_stalls_from_the_detector() {
        // With the screen mostly off there is little traffic, so the kernel
        // predicate rarely trips even though the link stalls just as often.
        let mut active = base_cfg();
        active.stall_rate_per_hour = 6.0;
        let mut idle = active.clone();
        idle.screen_active_fraction = 0.15;

        let (a_stats, _) = run_device(active, 24, 91);
        let (i_stats, _) = run_device(idle, 24, 91);
        assert!(
            i_stats.stalls_detected * 2 < a_stats.stalls_detected,
            "idle {} vs active {} detections",
            i_stats.stalls_detected,
            a_stats.stalls_detected
        );
    }

    #[test]
    fn oos_episodes_have_durations() {
        let mut cfg = base_cfg();
        cfg.oos_scale = 40.0;
        let (stats, log) = run_device(cfg, 24, 49);
        assert!(stats.oos_episodes > 0, "{stats:?}");
        let ends = log
            .iter()
            .filter(|(_, e)| matches!(e, TelephonyEvent::OutOfServiceEnded { .. }))
            .count();
        assert!(ends > 0);
    }
}
