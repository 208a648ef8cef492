//! Deterministic fault-campaign driver over the full micro-DES stack.
//!
//! Each scenario id decodes (mixed-radix) into one point of the fault grid —
//! fault mix × injection schedule × RAT policy × recovery trigger × mobility
//! profile × user patience — and runs a full [`DeviceSim`] agent through it,
//! stepping the event queue *manually* so a registry of cross-stack
//! invariants ([`cellrel_sim::campaign`]) can audit the stack after every
//! single event. Scenarios derive all randomness from
//! `SimRng::for_substream(root_seed, scenario_id)`, so a campaign's report
//! is bit-identical at any thread count and any single scenario replays
//! byte-identically from `(root_seed, id)` alone — which is all a
//! [`cellrel_sim::Violation`] needs to be a complete repro recipe.
//!
//! The invariants encode the paper's cross-layer contracts:
//!
//! * recovery stages never regress within one episode (§3.2's progressive
//!   three-stage mechanism);
//! * recovery actions respect the configured probation triple — vanilla
//!   60/60/60 s or TIMP 21/6/16 s (§4.2);
//! * a suspected Data_Stall implies >10 tx and 0 rx segments in the last
//!   minute (§2.1's kernel predicate);
//! * monitor-measured stall durations stay within probing's error bounds of
//!   DES ground truth (§2.2: ≤5 s, minute-granular after long-stall revert);
//! * once faults stop, no device stays wedged out of service.

use cellrel_device::{
    DeploymentConfig, DeviceConfig, DeviceSim, DeviceStats, LinkCondition, MobilityProfile,
    MonitoringService, RadioEnvironment, RatPolicyKind, RecordingBoth, RecoveryConfig,
    TelephonyEvent, STALL_MIN_SENT,
};
use cellrel_sim::campaign::{
    run_campaign, CampaignReport, Invariant, InvariantRegistry, ScenarioOutcome,
};
use cellrel_sim::{
    resolve_threads, run_sharded_merge, EventHandler, Merge, MetricsRegistry, SimRng, Telemetry,
    TimerWheel,
};
use cellrel_types::{
    DeviceId, FailureEvent, FailureKind, Isp, Rat, RatSet, ServiceState, SimDuration, SimTime,
};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Root seed; scenario `i` draws from substream `(root_seed, i)`.
    pub root_seed: u64,
    /// Number of scenarios to enumerate (ids `0..scenarios`; the grid wraps
    /// modulo [`ChaosScenario::GRID`], so any count is valid).
    pub scenarios: u64,
    /// Worker threads (0 = auto via `CELLREL_THREADS`).
    pub threads: usize,
    /// Fault-injection horizon per scenario.
    pub horizon: SimDuration,
    /// Fault-free grace period after the horizon, during which every live
    /// fault is healed and the device must drain back to healthy service.
    pub grace: SimDuration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            root_seed: 2021,
            scenarios: 256,
            threads: 0,
            horizon: SimDuration::from_hours(6),
            grace: SimDuration::from_hours(1),
        }
    }
}

/// The fault-mix axis: how likely an injected condition is a device-side
/// false-positive class rather than a network blackhole.
const FAULT_MIXES: [(&str, f64); 3] = [("blackhole", 0.0), ("mixed", 0.3), ("system-heavy", 0.9)];

/// The schedule axis: `(name, stalls/hour, oos scale)`.
const SCHEDULES: [(&str, f64, f64); 3] = [
    ("calm", 0.5, 1.0),
    ("moderate", 4.0, 4.0),
    ("storm", 10.0, 20.0),
];

/// The RAT-policy axis (Android 10/11 carry the blind-5G-preference defect
/// the paper dissects, so 5G hardware rides along for those and for the
/// stability-compatible fix).
const POLICIES: [(&str, RatPolicyKind); 4] = [
    ("android9", RatPolicyKind::Android9),
    ("android10", RatPolicyKind::Android10),
    ("android11", RatPolicyKind::Android11),
    ("stability", RatPolicyKind::StabilityCompatible),
];

/// The recovery-trigger axis.
const RECOVERIES: [&str; 2] = ["vanilla", "timp"];

/// The mobility axis.
const MOBILITY: [&str; 3] = ["stationary", "commuter", "roamer"];

/// The user-patience axis: the impatient user resets after ~30 s (§3.2);
/// the patient one never does, leaving recovery to run all three stages.
const USERS: [(&str, f64); 2] = [("impatient", 30.0), ("patient", 1e9)];

/// One decoded scenario: a point in the fault grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosScenario {
    /// Scenario id (the encoder input).
    pub id: u64,
    /// Index into `FAULT_MIXES`.
    pub fault_mix: usize,
    /// Index into `SCHEDULES`.
    pub schedule: usize,
    /// Index into `POLICIES`.
    pub policy: usize,
    /// Index into `RECOVERIES`.
    pub recovery: usize,
    /// Index into `MOBILITY`.
    pub mobility: usize,
    /// Index into `USERS`.
    pub user: usize,
}

impl ChaosScenario {
    /// Grid size: ids decode modulo this, so larger campaigns revisit the
    /// grid with fresh random substreams.
    pub const GRID: u64 = 3 * 3 * 4 * 2 * 3 * 2;

    /// Mixed-radix decode of a scenario id.
    pub fn decode(id: u64) -> Self {
        let mut x = id % Self::GRID;
        let fault_mix = (x % 3) as usize;
        x /= 3;
        let schedule = (x % 3) as usize;
        x /= 3;
        let policy = (x % 4) as usize;
        x /= 4;
        let recovery = (x % 2) as usize;
        x /= 2;
        let mobility = (x % 3) as usize;
        x /= 3;
        let user = (x % 2) as usize;
        ChaosScenario {
            id,
            fault_mix,
            schedule,
            policy,
            recovery,
            mobility,
            user,
        }
    }

    /// Coverage labels for the campaign report (one per axis).
    pub fn coverage_labels(&self) -> Vec<String> {
        vec![
            format!("fault:{}", FAULT_MIXES[self.fault_mix].0),
            format!("schedule:{}", SCHEDULES[self.schedule].0),
            format!("policy:{}", POLICIES[self.policy].0),
            format!("recovery:{}", RECOVERIES[self.recovery]),
            format!("mobility:{}", MOBILITY[self.mobility]),
            format!("user:{}", USERS[self.user].0),
        ]
    }

    /// Human-readable one-line description.
    pub fn describe(&self) -> String {
        self.coverage_labels().join(" ")
    }

    /// Build the device configuration for this scenario. `env` supplies the
    /// map positions; `rng` jitters them.
    fn device_config(&self, env: &RadioEnvironment, rng: &mut SimRng) -> DeviceConfig {
        let centers = env.city_centers();
        let home = centers[self.id as usize % centers.len()]
            .offset(rng.normal(0.0, 0.5), rng.normal(0.0, 0.5));
        let mut cfg = DeviceConfig::new(DeviceId(self.id as u32), Isp::A, home);
        cfg.fp_condition_prob = FAULT_MIXES[self.fault_mix].1;
        cfg.stall_rate_per_hour = SCHEDULES[self.schedule].1;
        cfg.oos_scale = SCHEDULES[self.schedule].2;
        cfg.policy = POLICIES[self.policy].1;
        cfg.rats = if self.policy == 0 {
            RatSet::up_to(Rat::G4)
        } else {
            RatSet::up_to(Rat::G5)
        };
        cfg.recovery = if self.recovery == 0 {
            RecoveryConfig::vanilla()
        } else {
            RecoveryConfig::timp_optimized()
        };
        cfg.mobility = match self.mobility {
            0 => MobilityProfile::Stationary,
            1 => MobilityProfile::Commuter {
                work: centers[(self.id as usize + 1) % centers.len()],
            },
            _ => MobilityProfile::Roamer { radius_km: 2.0 },
        };
        cfg.user_reset_median_secs = USERS[self.user].1;
        cfg
    }
}

/// What the invariants see after each event step: the events and monitor
/// records that step produced, plus a snapshot of cross-stack state. Owned
/// data (the element types are `Copy`), so invariants stay lifetime-free.
#[derive(Debug, Clone)]
pub struct StepView {
    /// Queue clock after the step.
    pub now: SimTime,
    /// Telephony events emitted during this step.
    pub new_events: Vec<(SimTime, TelephonyEvent)>,
    /// Monitor trace records appended during this step.
    pub new_records: Vec<FailureEvent>,
    /// `(sent, received)` TCP segments in the kernel's detection window.
    pub window_counts: (usize, usize),
    /// Whether the recovery engine is mid-episode after the step.
    pub recovery_active: bool,
    /// The configured probation triple.
    pub probations: [SimDuration; 3],
    /// Whether the vanilla detector currently believes the link stalled.
    pub detector_stalled: bool,
    /// The device's aggregate counters.
    pub stats: DeviceStats,
    /// Service state after the step.
    pub service_state: ServiceState,
    /// Whether the scenario has entered its fault-free grace period.
    pub quiesced: bool,
    /// Set only on the finish-phase view: why the device is still wedged,
    /// if it is.
    pub wedged: Option<String>,
}

// ---- the invariant registry ---------------------------------------------

/// Recovery stages execute in order 1 → 2 → 3 within an episode and restart
/// from 1 in the next — never regress, never skip, never fire after
/// exhaustion.
#[derive(Default)]
struct StageMonotonic {
    /// Next legal stage; `None` after stage 3 failed (exhausted: nothing
    /// may run until the engine goes idle).
    expected: Option<u8>,
    started: bool,
}

impl Invariant<StepView> for StageMonotonic {
    fn name(&self) -> &'static str {
        "recovery-stage-monotonic"
    }

    fn check(&mut self, view: &StepView) -> Result<(), String> {
        if !self.started {
            self.expected = Some(1);
            self.started = true;
        }
        let mut result = Ok(());
        for (_, ev) in &view.new_events {
            if let TelephonyEvent::RecoveryActionExecuted { stage, fixed } = ev {
                match self.expected {
                    None => {
                        result = Err(format!("stage {stage} executed after exhaustion"));
                    }
                    Some(e) if *stage != e => {
                        result = Err(format!("stage {stage} executed, expected stage {e}"));
                    }
                    Some(_) => {}
                }
                self.expected = if *fixed {
                    Some(1)
                } else if *stage < 3 {
                    Some(stage + 1)
                } else {
                    None // exhausted
                };
            }
        }
        if !view.recovery_active {
            // Engine idle: the next episode starts over at stage 1.
            self.expected = Some(1);
        }
        result
    }
}

/// Every recovery action waits out its full configured probation window:
/// stage `n` fires no earlier than `probations[n-1]` after the window
/// opened (stall detection for stage 1, the previous failed stage
/// otherwise). A stale probation timer leaking across episodes fires
/// *early* — exactly what this catches.
#[derive(Default)]
struct ProbationRespected {
    anchor: Option<SimTime>,
    prev_active: bool,
}

impl Invariant<StepView> for ProbationRespected {
    fn name(&self) -> &'static str {
        "probation-respected"
    }

    fn check(&mut self, view: &StepView) -> Result<(), String> {
        let mut result = Ok(());
        for (t, ev) in &view.new_events {
            match ev {
                // A probation window opens only when detection *starts*
                // the engine; re-detections mid-episode don't restart it.
                TelephonyEvent::DataStallSuspected { .. }
                    if !self.prev_active && self.anchor.is_none() =>
                {
                    self.anchor = Some(*t);
                }
                TelephonyEvent::RecoveryActionExecuted { stage, fixed } => {
                    let idx = (*stage as usize - 1).min(2);
                    if let Some(a) = self.anchor {
                        let waited = t.since(a);
                        let required = view.probations[idx];
                        if waited < required {
                            result = Err(format!(
                                "stage {stage} after {waited}, probation is {required}"
                            ));
                        }
                    }
                    self.anchor = if !fixed && *stage < 3 { Some(*t) } else { None };
                }
                TelephonyEvent::DataStallCleared { .. } => {
                    self.anchor = None;
                }
                _ => {}
            }
        }
        if !view.recovery_active {
            self.anchor = None;
        }
        self.prev_active = view.recovery_active;
        result
    }
}

/// A suspected Data_Stall implies the kernel predicate actually held: more
/// than 10 outbound and zero inbound TCP segments in the last minute.
#[derive(Default)]
struct StallImpliesTraffic;

impl Invariant<StepView> for StallImpliesTraffic {
    fn name(&self) -> &'static str {
        "stall-implies-traffic"
    }

    fn check(&mut self, view: &StepView) -> Result<(), String> {
        for (_, ev) in &view.new_events {
            if matches!(ev, TelephonyEvent::DataStallSuspected { .. }) {
                let (sent, received) = view.window_counts;
                if sent <= STALL_MIN_SENT || received != 0 {
                    return Err(format!(
                        "suspected with {sent} tx / {received} rx in window \
                         (need >{STALL_MIN_SENT} tx, 0 rx)"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Monitor-measured stall durations stay within probing's error bounds of
/// the DES ground truth, and device-side false positives never become
/// records (§2.2).
#[derive(Default)]
struct DurationAccuracy;

impl Invariant<StepView> for DurationAccuracy {
    fn name(&self) -> &'static str {
        "duration-accuracy"
    }

    fn check(&mut self, view: &StepView) -> Result<(), String> {
        let cleared = view.new_events.iter().find_map(|(_, ev)| match ev {
            TelephonyEvent::DataStallCleared {
                duration,
                condition,
                ..
            } => Some((*duration, *condition)),
            _ => None,
        });
        let record = view
            .new_records
            .iter()
            .find(|r| r.kind == FailureKind::DataStall);
        match (cleared, record) {
            (Some((_, condition)), Some(r))
                if condition.is_system_side() || condition == LinkCondition::DnsOutage =>
            {
                Err(format!(
                    "{condition} episode recorded as a true stall ({})",
                    r.duration
                ))
            }
            (Some((truth, _)), Some(r)) => {
                let err = r.duration.as_secs_f64() - truth.as_secs_f64();
                // Probing overshoots by at most one round (≤5.5 s); past the
                // 1200 s backoff threshold rounds grow and the session may
                // revert to a minute-granular estimate (≤61 s high).
                let bound = if truth.as_secs_f64() <= 1190.0 {
                    5.5
                } else {
                    61.0
                };
                if !(-0.001..=bound).contains(&err) {
                    Err(format!(
                        "measured {} for a {truth} stall (err {err:.3} s, bound {bound} s)",
                        r.duration
                    ))
                } else {
                    Ok(())
                }
            }
            (None, Some(r)) => Err(format!(
                "stall record ({}) without a cleared event this step",
                r.duration
            )),
            _ => Ok(()),
        }
    }
}

/// Device counters stay mutually consistent: clears never outrun
/// detections, and all counters are monotone.
#[derive(Default)]
struct CounterSanity {
    prev: Option<DeviceStats>,
}

impl Invariant<StepView> for CounterSanity {
    fn name(&self) -> &'static str {
        "counter-sanity"
    }

    fn check(&mut self, view: &StepView) -> Result<(), String> {
        let s = view.stats;
        if s.stalls_cleared > s.stalls_detected {
            return Err(format!(
                "{} stalls cleared but only {} detected",
                s.stalls_cleared, s.stalls_detected
            ));
        }
        if let Some(p) = self.prev {
            if s.stalls_detected < p.stalls_detected
                || s.stalls_cleared < p.stalls_cleared
                || s.recovery_actions < p.recovery_actions
                || s.manual_resets < p.manual_resets
            {
                return Err("a device counter went backwards".into());
            }
        }
        self.prev = Some(s);
        Ok(())
    }
}

/// Once faults clear, the device must drain back to healthy service — no
/// permanent wedge (checked at scenario end, after the grace period).
#[derive(Default)]
struct NoWedge;

impl Invariant<StepView> for NoWedge {
    fn name(&self) -> &'static str {
        "no-wedge-after-faults-clear"
    }

    fn check(&mut self, _view: &StepView) -> Result<(), String> {
        Ok(())
    }

    fn finish(&mut self, view: &StepView) -> Result<(), String> {
        match &view.wedged {
            Some(reason) => Err(format!("device wedged at scenario end: {reason}")),
            None => Ok(()),
        }
    }
}

/// The standard cross-stack invariant registry. Campaign drivers and the
/// replay path both build it from here so they check the same properties.
pub(crate) fn default_registry() -> InvariantRegistry<StepView> {
    let mut reg = InvariantRegistry::new();
    reg.register(StageMonotonic::default())
        .register(ProbationRespected::default())
        .register(StallImpliesTraffic)
        .register(DurationAccuracy)
        .register(CounterSanity::default())
        .register(NoWedge);
    reg
}

// ---- the scenario harness ------------------------------------------------

/// Run one scenario with the standard invariant registry.
pub fn run_scenario(cfg: &ChaosConfig, id: u64) -> ScenarioOutcome {
    run_scenario_with(cfg, id, default_registry)
}

/// Run one scenario with a caller-supplied registry (tests use this to
/// plant canary invariants). Deterministic in `(cfg.root_seed, id)` alone.
pub fn run_scenario_with<F>(cfg: &ChaosConfig, id: u64, make_registry: F) -> ScenarioOutcome
where
    F: Fn() -> InvariantRegistry<StepView>,
{
    run_scenario_instrumented(cfg, id, make_registry, Telemetry::disabled())
}

/// Run one scenario with an enabled [`Telemetry`] handle attached to the
/// device stack; returns the outcome plus the scenario's metrics snapshot
/// (spans become Chrome trace events when `trace` is set).
pub fn run_scenario_telemetry(
    cfg: &ChaosConfig,
    id: u64,
    trace: bool,
) -> (ScenarioOutcome, MetricsRegistry) {
    let tele = Telemetry::from_flags(true, trace);
    let outcome = run_scenario_instrumented(cfg, id, default_registry, tele.clone());
    (outcome, tele.snapshot())
}

/// The scenario harness. The telemetry handle is scenario-local (scenarios
/// are single-threaded units); campaign drivers fold the per-scenario
/// registries, whose merge is commutative, so campaign metrics stay
/// thread-count invariant.
fn run_scenario_instrumented<F>(
    cfg: &ChaosConfig,
    id: u64,
    make_registry: F,
    tele: Telemetry,
) -> ScenarioOutcome
where
    F: Fn() -> InvariantRegistry<StepView>,
{
    let scenario = ChaosScenario::decode(id);
    let mut rng = SimRng::for_substream(cfg.root_seed, id);
    let mut env_rng = rng.fork(0xE);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut env_rng);
    let device_cfg = scenario.device_config(&env, &mut rng);

    // Timer-wheel backend: the chaos grid doubles as a stress test for the
    // wheel's cancel-heavy paths (probations, heal timers, manual resets),
    // with every invariant checked after each event.
    let mut queue = TimerWheel::new();
    let listener = RecordingBoth::new(MonitoringService::new(device_cfg.id, rng.fork(1)));
    let mut dev = DeviceSim::new(device_cfg, &env, listener, rng.fork(2), &mut queue);
    dev.set_telemetry(tele);

    let mut registry = make_registry();
    let horizon = SimTime::ZERO + cfg.horizon;
    let end = horizon + cfg.grace;
    let mut violations = Vec::new();
    let mut event_index = 0u64;
    let mut ev_cursor = 0usize;
    let mut rec_cursor = 0usize;
    let mut quiesced = false;

    while let Some(at) = queue.peek_time() {
        if at > end {
            break;
        }
        if !quiesced && at > horizon {
            // Fault phase over: stop injecting, heal live faults, and give
            // the stack the grace period to drain.
            dev.quiesce(&mut queue);
            quiesced = true;
            continue;
        }
        let (t, ev) = queue.pop().expect("peeked event");
        dev.handle(t, ev, &mut queue);
        event_index += 1;
        let view = step_view(&dev, t, &mut ev_cursor, &mut rec_cursor, quiesced, None);
        registry.check_step(id, event_index, t.as_millis(), &view, &mut violations);
    }

    let wedged = dev.wedged_reason();
    let view = step_view(
        &dev,
        queue.now(),
        &mut ev_cursor,
        &mut rec_cursor,
        quiesced,
        Some(wedged),
    );
    registry.check_finish(
        id,
        event_index,
        queue.now().as_millis(),
        &view,
        &mut violations,
    );

    ScenarioOutcome {
        scenario: id,
        events: event_index,
        violations,
        coverage: scenario.coverage_labels(),
    }
}

/// Snapshot the cross-stack state after one event step. The cursors track
/// how much of the listener log / monitor records previous steps consumed.
fn step_view(
    dev: &DeviceSim<'_, RecordingBoth<MonitoringService>>,
    now: SimTime,
    ev_cursor: &mut usize,
    rec_cursor: &mut usize,
    quiesced: bool,
    wedged: Option<Option<String>>,
) -> StepView {
    let log = &dev.listener().log;
    let records = dev.listener().inner.records();
    let new_events = log[*ev_cursor..].to_vec();
    *ev_cursor = log.len();
    let new_records = records[*rec_cursor..].to_vec();
    *rec_cursor = records.len();
    StepView {
        now,
        new_events,
        new_records,
        window_counts: dev.netstack().counts_in_window(now),
        recovery_active: dev.recovery().active(),
        probations: dev.config().recovery.probations,
        detector_stalled: dev.detector().is_stalled(),
        stats: *dev.stats(),
        service_state: dev.service_state().state(),
        quiesced,
        wedged: wedged.flatten(),
    }
}

/// Run the whole campaign: scenarios `0..cfg.scenarios` sharded over
/// `cfg.threads` threads, folded into one [`CampaignReport`].
pub fn run_chaos_campaign(cfg: &ChaosConfig) -> CampaignReport {
    run_campaign(cfg.scenarios, cfg.threads, |id| run_scenario(cfg, id))
}

/// Run the campaign with telemetry on: every scenario records into its own
/// registry and the per-scenario [`MetricsRegistry`]s fold into one fleet
/// registry alongside the report. Registry merge is commutative and
/// associative, so the folded metrics (and their digest) are identical at
/// any thread count. With `trace` set, device spans also become Chrome
/// trace events in the registry.
pub fn run_chaos_campaign_metrics(
    cfg: &ChaosConfig,
    trace: bool,
) -> (CampaignReport, MetricsRegistry) {
    let threads = resolve_threads(cfg.threads);
    run_sharded_merge(cfg.scenarios as usize, threads, |range| {
        let mut report = CampaignReport::default();
        let mut snap = MetricsRegistry::new();
        for idx in range {
            let (outcome, s) = run_scenario_telemetry(cfg, idx as u64, trace);
            report.absorb(outcome);
            snap.merge(s);
        }
        (report, snap)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ChaosConfig {
        ChaosConfig {
            scenarios: 4,
            horizon: SimDuration::from_hours(2),
            grace: SimDuration::from_mins(45),
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn scenario_decode_covers_every_axis() {
        let mut seen = [
            std::collections::BTreeSet::new(),
            std::collections::BTreeSet::new(),
            std::collections::BTreeSet::new(),
            std::collections::BTreeSet::new(),
            std::collections::BTreeSet::new(),
            std::collections::BTreeSet::new(),
        ];
        for id in 0..ChaosScenario::GRID {
            let s = ChaosScenario::decode(id);
            seen[0].insert(s.fault_mix);
            seen[1].insert(s.schedule);
            seen[2].insert(s.policy);
            seen[3].insert(s.recovery);
            seen[4].insert(s.mobility);
            seen[5].insert(s.user);
        }
        assert_eq!(
            seen.iter().map(|s| s.len()).collect::<Vec<_>>(),
            vec![3, 3, 4, 2, 3, 2]
        );
        // Ids wrap modulo the grid, keeping every id decodable.
        assert_eq!(
            ChaosScenario::decode(ChaosScenario::GRID).fault_mix,
            ChaosScenario::decode(0).fault_mix
        );
    }

    #[test]
    fn coverage_labels_name_all_axes() {
        let labels = ChaosScenario::decode(7).coverage_labels();
        assert_eq!(labels.len(), 6);
        for prefix in [
            "fault:",
            "schedule:",
            "policy:",
            "recovery:",
            "mobility:",
            "user:",
        ] {
            assert!(
                labels.iter().any(|l| l.starts_with(prefix)),
                "missing {prefix} in {labels:?}"
            );
        }
    }

    #[test]
    fn scenarios_replay_byte_identically() {
        let cfg = small_cfg();
        let a = run_scenario(&cfg, 1);
        let b = run_scenario(&cfg, 1);
        assert_eq!(a, b);
        assert!(a.events > 0);
    }

    #[test]
    fn small_campaign_is_clean_and_thread_invariant() {
        let cfg = small_cfg();
        let base = run_chaos_campaign(&cfg);
        assert_eq!(base.scenarios, cfg.scenarios);
        assert_eq!(
            base.violations,
            Vec::new(),
            "invariant violations in the default stack"
        );
        let two = run_chaos_campaign(&ChaosConfig {
            threads: 2,
            ..small_cfg()
        });
        assert_eq!(base, two);
        assert_eq!(base.digest(), two.digest());
    }

    #[test]
    fn telemetry_neither_perturbs_nor_depends_on_threads() {
        let cfg = small_cfg();
        // Attaching telemetry must not change simulation behaviour: the
        // plain and instrumented outcomes are identical.
        // Scenario 6 decodes to the "storm" schedule, so stall activity —
        // and therefore spans — is guaranteed within the 2 h horizon.
        let plain = run_scenario(&cfg, 6);
        let (instrumented, snap) = run_scenario_telemetry(&cfg, 6, true);
        assert_eq!(plain, instrumented);
        assert!(snap.counter("dc.transitions") > 0, "no dc activity seen");
        assert!(!snap.trace().is_empty(), "tracing recorded nothing");
        // Campaign metrics fold commutatively: identical at 1 vs 2 threads.
        let (report1, snap1) = run_chaos_campaign_metrics(&cfg, true);
        let (report2, snap2) = run_chaos_campaign_metrics(
            &ChaosConfig {
                threads: 2,
                ..small_cfg()
            },
            true,
        );
        assert_eq!(report1, report2);
        assert_eq!(snap1, snap2);
        assert_eq!(snap1.digest(), snap2.digest());
    }

    #[test]
    fn canary_invariant_produces_replayable_violations() {
        struct Canary;
        impl Invariant<StepView> for Canary {
            fn name(&self) -> &'static str {
                "canary"
            }
            fn check(&mut self, view: &StepView) -> Result<(), String> {
                for (_, ev) in &view.new_events {
                    if matches!(ev, TelephonyEvent::DataSetupSuccess { .. }) {
                        return Err("canary trips on first setup success".into());
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
        let cfg = small_cfg();
        let a = run_scenario_with(&cfg, 2, with_canary);
        assert!(!a.violations.is_empty(), "a device always connects");
        let b = run_scenario_with(&cfg, 2, with_canary);
        assert_eq!(a.violations, b.violations, "replay must reproduce exactly");
        assert_eq!(a.violations[0].invariant, "canary");
    }
}
