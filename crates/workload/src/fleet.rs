//! Event-driven fleet simulation over struct-of-arrays device state.
//!
//! The macro [`study`](crate::study) answers *"what happened over eight
//! months"* statistically; the micro [`ab`](crate::ab) fleets run tens of
//! full device stacks. This module fills the gap between them: **10⁶
//! devices with live per-device state on a simulated time axis**, cheap
//! enough for a 30-day horizon on one core because the driver does work
//! proportional to *events*, not device-ticks.
//!
//! # The two processes per device
//!
//! * **Failure arrivals** — a non-homogeneous Poisson process: the
//!   device's base hazard (its calibrated per-study failure mean, scaled
//!   to the fleet window) modulated by the diurnal load curve
//!   ([`diurnal_factor`]). Sampled by *thinning*: candidates arrive at the
//!   constant envelope rate `base × DIURNAL_PEAK` and are accepted with
//!   probability `diurnal(t) / DIURNAL_PEAK`. Each accepted candidate is
//!   attributed exactly like a macro-study failure (kind, signal level,
//!   BS, cause, duration) — except the RAT comes from the device's *live*
//!   radio state below, not an i.i.d. draw.
//! * **RAT occupancy** — the semi-Markov jump process of
//!   [`RatTransitionModel`]: exponential dwell, jump ∝ the device's usage
//!   mix. The fleet only does work at transitions, yet the time share on
//!   each RAT matches the §3.3 marginals exactly.
//!
//! # Determinism: per-(device, source, occurrence) substreams
//!
//! Every random draw belongs to one *occurrence* of one *source* on one
//! *device*, and its RNG is derived as a **pure function**
//! `SimRng::for_substream(root, device ≪ 34 | source ≪ 32 | occurrence)`.
//! No RNG state is stored between events — streams are re-derived on
//! demand — so the bytes produced are independent of scheduling order.
//! That is what lets three very different drivers produce **bit-identical
//! digests**: the per-tick scanner (any tick size), the timer-wheel
//! event-driven driver, and any shard layout of either under
//! [`run_sharded`].
//!
//! # Struct-of-arrays state
//!
//! Fleet-resident state is packed by device id into parallel arrays
//! (`ShardState`): current RAT (1 B), the two next-event deadlines
//! (8 B each), two occurrence counters (4 B each), the running event
//! digest (8 B) and one flag byte — 34 hot bytes per device, with the
//! cold [`DeviceProfile`] out-of-line in the shared [`Population`]. The
//! event-driven driver adds one timer-wheel alarm per device (the wheel
//! reports its own footprint via `approx_bytes`).

use crate::durations;
use crate::exposure::FailureLevelSampler;
use crate::fleet_metrics::FleetMetrics;
use crate::population::{DeviceProfile, Population, PopulationConfig};
use crate::study::{kind_weights_for, rat_mix, OOS_PRONE_SHARE};
use crate::BsAssigner;
use cellrel_modem::cause_mix::CauseMix;
use cellrel_radio::load::diurnal_factor;
use cellrel_radio::RatTransitionModel;
use cellrel_sim::{resolve_threads, run_sharded, Merge, MetricsRegistry, SimRng, TimerWheel};
use cellrel_types::{
    Apn, DeviceId, EventSink, FailureEvent, FailureKind, InSituInfo, Rat, SimDuration, SimTime,
};

/// Upper envelope of [`diurnal_factor`] used by the thinning sampler; a
/// unit test scans the curve to prove it dominates.
pub const DIURNAL_PEAK: f64 = 1.45;

/// Fleet-run parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Population parameters (shared with the macro study).
    pub population: PopulationConfig,
    /// Horizon in days.
    pub days: u64,
    /// Base stations in the attribution directory.
    pub bs_count: usize,
    /// Root seed.
    pub seed: u64,
    /// Mean dwell between RAT jump opportunities, in ms.
    pub mean_rat_dwell_ms: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            population: PopulationConfig::default(),
            days: 30,
            bs_count: 20_000,
            seed: 2021,
            mean_rat_dwell_ms: 4 * 3_600_000,
        }
    }
}

impl FleetConfig {
    /// A small configuration for unit tests.
    pub fn small() -> Self {
        FleetConfig {
            population: PopulationConfig {
                devices: 1_500,
                ..Default::default()
            },
            days: 7,
            bs_count: 1_000,
            ..Default::default()
        }
    }

    /// The simulated window in ms.
    pub fn horizon_ms(&self) -> u64 {
        self.days * 86_400_000
    }
}

/// Aggregated outcome of a fleet run. [`Merge`]-folded across shards; all
/// integer fields are exact, so the fold is bit-identical at any thread
/// count.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Devices simulated.
    pub devices: u64,
    /// Horizon in days.
    pub days: u64,
    /// Failure candidates processed (accepted + thinned).
    pub candidates: u64,
    /// Accepted (recorded) failures.
    pub failures: u64,
    /// RAT jump opportunities processed.
    pub radio_events: u64,
    /// Jump opportunities that actually changed the serving RAT.
    pub rat_changes: u64,
    /// Order-invariant fleet digest: per-device FNV-1a chains over the
    /// device's event sequence, summed (wrapping) across devices.
    pub digest: u64,
    /// Total hot bytes: SoA arrays plus (event-driven) the timer wheel.
    pub hot_bytes: u64,
    /// Folded failure metrics (same registry names as the macro study).
    pub metrics: MetricsRegistry,
}

impl FleetReport {
    /// All source events processed (candidates + radio jumps).
    pub fn events(&self) -> u64 {
        self.candidates + self.radio_events
    }

    /// Hot fleet-resident footprint per device, in bytes.
    pub fn bytes_per_device(&self) -> f64 {
        if self.devices == 0 {
            return 0.0;
        }
        self.hot_bytes as f64 / self.devices as f64
    }
}

/// Event sources, in canonical processing order for simultaneous events.
const SRC_INIT: u64 = 0;
const SRC_FAIL: u64 = 1;
const SRC_RADIO: u64 = 2;

/// "Never fires": a deadline past every horizon.
const NEVER: u64 = u64::MAX;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

#[inline]
fn fnv_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Derive the RNG for one occurrence of one source on one device. Pure:
/// independent of driver, shard layout and call order. The key packs
/// `device` into bits 34.., `source` into 32..34 and `occurrence` into
/// 0..32, so keys never collide for fleets under 2³⁰ devices.
#[inline]
fn occ_rng(root: u64, device: usize, source: u64, occurrence: u32) -> SimRng {
    let key = ((device as u64) << 34) | (source << 32) | occurrence as u64;
    SimRng::for_substream(root, key)
}

/// Read-only per-run context shared by every shard.
struct FleetCtx {
    bs: BsAssigner,
    level_sampler: FailureLevelSampler,
    cause_mix: CauseMix,
    rat_model: [RatTransitionModel; 2],
    horizon_ms: u64,
    /// Calibration rescale: the population's failure means are per 243-day
    /// study window.
    day_scale: f64,
    root: u64,
}

impl FleetCtx {
    fn rat_model(&self, dev: &DeviceProfile) -> &RatTransitionModel {
        &self.rat_model[usize::from(dev.spec().hw.has_5g_modem)]
    }

    /// Mean gap between failure *candidates* for `dev`, in ms (envelope
    /// rate `base × DIURNAL_PEAK`), or `None` if the device never fails.
    fn candidate_gap_ms(&self, dev: &DeviceProfile) -> f64 {
        let mean_failures = dev.conditional_mean_failures() * self.day_scale;
        self.horizon_ms as f64 / (mean_failures.max(1e-9) * DIURNAL_PEAK)
    }
}

fn fleet_ctx(cfg: &FleetConfig) -> (Population, FleetCtx) {
    let mut rng = SimRng::new(cfg.seed);
    let population = Population::generate(&cfg.population, &mut rng);
    let bs = BsAssigner::new(cfg.bs_count, &mut rng);
    let root = rng.fork(0xF1EE7).seed();
    let dwell = cfg.mean_rat_dwell_ms.max(1) as f64;
    let model = |has_5g: bool| {
        let (rats, weights) = rat_mix(has_5g);
        RatTransitionModel::new(rats, weights, dwell)
    };
    let ctx = FleetCtx {
        bs,
        level_sampler: FailureLevelSampler::new(),
        cause_mix: CauseMix::table2(),
        rat_model: [model(false), model(true)],
        horizon_ms: cfg.horizon_ms(),
        day_scale: cfg.days as f64 / 243.0,
        root,
    };
    (population, ctx)
}

/// Hot per-device state for one shard, struct-of-arrays: every field is a
/// dense array indexed by shard-local device index, so the per-tick
/// scanner touches two cache-friendly deadline arrays and nothing else
/// for idle devices.
struct ShardState {
    rat: Vec<u8>,
    next_fail: Vec<u64>,
    next_radio: Vec<u64>,
    fail_occ: Vec<u32>,
    radio_occ: Vec<u32>,
    digest: Vec<u64>,
    oos_prone: Vec<bool>,
}

impl ShardState {
    fn new(n: usize) -> Self {
        ShardState {
            rat: vec![0; n],
            next_fail: vec![NEVER; n],
            next_radio: vec![NEVER; n],
            fail_occ: vec![0; n],
            radio_occ: vec![0; n],
            digest: vec![FNV_OFFSET; n],
            oos_prone: vec![false; n],
        }
    }

    /// SoA bytes per device (the advertised hot footprint).
    const BYTES_PER_DEVICE: u64 = (1 + 8 + 8 + 4 + 4 + 8 + 1) as u64;

    fn soa_bytes(&self) -> u64 {
        self.rat.len() as u64 * Self::BYTES_PER_DEVICE
    }

    /// The device's earliest pending deadline and its source, breaking
    /// ties by source order — the canonical event order.
    #[inline]
    fn min_due(&self, i: usize) -> (u64, u64) {
        let f = self.next_fail[i];
        let r = self.next_radio[i];
        if f <= r {
            (f, SRC_FAIL)
        } else {
            (r, SRC_RADIO)
        }
    }
}

/// Per-shard accumulator; [`Merge`] makes the shard fold exact.
struct ShardPartial {
    candidates: u64,
    failures: u64,
    radio_events: u64,
    rat_changes: u64,
    digest: u64,
    hot_bytes: u64,
    sink: FleetMetrics,
}

impl ShardPartial {
    fn new() -> Self {
        ShardPartial {
            candidates: 0,
            failures: 0,
            radio_events: 0,
            rat_changes: 0,
            digest: 0,
            hot_bytes: 0,
            sink: FleetMetrics::new(),
        }
    }
}

impl Merge for ShardPartial {
    fn merge(&mut self, other: Self) {
        self.candidates += other.candidates;
        self.failures += other.failures;
        self.radio_events += other.radio_events;
        self.rat_changes += other.rat_changes;
        self.digest = self.digest.wrapping_add(other.digest);
        self.hot_bytes += other.hot_bytes;
        self.sink.merge(other.sink);
    }
}

/// Initialise one device: the gate draw (most devices never fail), the
/// OOS-proneness flag, the stationary initial RAT, and the first deadline
/// of each source from its occurrence-0 stream.
fn init_device(
    local: usize,
    global: usize,
    dev: &DeviceProfile,
    ctx: &FleetCtx,
    st: &mut ShardState,
) {
    let mut rng = occ_rng(ctx.root, global, SRC_INIT, 0);
    let failing = rng.chance(dev.failure_prevalence());
    st.oos_prone[local] = dev.remote_region || rng.chance(OOS_PRONE_SHARE - 0.03);
    st.rat[local] = ctx.rat_model(dev).initial(&mut rng).index() as u8;
    if failing {
        let mut f0 = occ_rng(ctx.root, global, SRC_FAIL, 0);
        let gap = (f0.exp(ctx.candidate_gap_ms(dev)).round() as u64).max(1);
        st.next_fail[local] = gap;
    }
    let mut r0 = occ_rng(ctx.root, global, SRC_RADIO, 0);
    st.next_radio[local] = ctx.rat_model(dev).exp_dwell(&mut r0);
}

/// Process one failure candidate at its due time `t` (occurrence `k`):
/// re-derive the occurrence stream, skip its gap draw (already consumed
/// as the stored deadline), thin against the diurnal curve, attribute the
/// failure if accepted, then arm occurrence `k + 1`.
fn process_failure(
    local: usize,
    global: usize,
    t: u64,
    dev: &DeviceProfile,
    ctx: &FleetCtx,
    st: &mut ShardState,
    out: &mut ShardPartial,
) {
    let occ = st.fail_occ[local];
    let gap_ms = ctx.candidate_gap_ms(dev);
    let mut rng = occ_rng(ctx.root, global, SRC_FAIL, occ);
    let _ = rng.exp(gap_ms);
    out.candidates += 1;

    let hour = t as f64 / 3_600_000.0 % 24.0;
    let accepted = rng.chance(diurnal_factor(hour) / DIURNAL_PEAK);
    let mut h = fnv_word(st.digest[local], t);
    h = fnv_word(h, SRC_FAIL);
    h = fnv_word(h, u64::from(accepted));

    if accepted {
        out.failures += 1;
        let kind = match rng.weighted_index(&kind_weights_for(st.oos_prone[local])) {
            0 => FailureKind::DataSetupError,
            1 => FailureKind::DataStall,
            2 => FailureKind::OutOfService,
            3 => FailureKind::SmsSendFail,
            _ => FailureKind::VoiceSetupFail,
        };
        // In-situ RAT: the live radio state, not an i.i.d. draw.
        let rat = Rat::from_index(st.rat[local] as usize).expect("rat state < 4");
        let level = ctx.level_sampler.sample(rat, &mut rng);
        let site = ctx.bs.assign(dev.isp, rat, &mut rng);
        let cause = (kind == FailureKind::DataSetupError).then(|| ctx.cause_mix.sample(&mut rng));
        let duration = durations::sample_duration(kind, &mut rng, dev.remote_region);
        h = fnv_word(h, kind.index() as u64);
        h = fnv_word(h, rat.index() as u64);
        h = fnv_word(h, duration.as_millis());
        out.sink.record(&FailureEvent {
            device: DeviceId(global as u32),
            kind,
            start: SimTime::from_millis(t),
            duration,
            cause,
            ctx: InSituInfo {
                rat,
                signal: level,
                apn: Apn::Internet,
                bs: Some(site.id),
                isp: dev.isp,
            },
        });
    }
    st.digest[local] = h;

    st.fail_occ[local] = occ + 1;
    let mut next = occ_rng(ctx.root, global, SRC_FAIL, occ + 1);
    st.next_fail[local] = t + (next.exp(gap_ms).round() as u64).max(1);
}

/// Process one RAT jump opportunity at `t` (occurrence `k`): re-derive
/// the stream, skip the dwell draw, take the jump, arm occurrence `k+1`.
fn process_radio(
    local: usize,
    global: usize,
    t: u64,
    dev: &DeviceProfile,
    ctx: &FleetCtx,
    st: &mut ShardState,
    out: &mut ShardPartial,
) {
    let occ = st.radio_occ[local];
    let model = ctx.rat_model(dev);
    let mut rng = occ_rng(ctx.root, global, SRC_RADIO, occ);
    let (_, rat) = model.next(&mut rng);
    out.radio_events += 1;
    if rat.index() as u8 != st.rat[local] {
        out.rat_changes += 1;
    }
    st.rat[local] = rat.index() as u8;
    let mut h = fnv_word(st.digest[local], t);
    h = fnv_word(h, SRC_RADIO);
    st.digest[local] = fnv_word(h, rat.index() as u64);

    st.radio_occ[local] = occ + 1;
    let mut next = occ_rng(ctx.root, global, SRC_RADIO, occ + 1);
    st.next_radio[local] = t + model.exp_dwell(&mut next);
}

/// Process every pending source event of one device with deadline
/// `< until`, in canonical `(time, source)` order. Both drivers funnel
/// through this one function — the proof obligation for bit-identity is
/// that they call it with the same per-device sequence of cut-offs, which
/// any monotone sequence ending at the horizon satisfies.
fn catch_up(
    local: usize,
    global: usize,
    until: u64,
    dev: &DeviceProfile,
    ctx: &FleetCtx,
    st: &mut ShardState,
    out: &mut ShardPartial,
) {
    loop {
        let (due, src) = st.min_due(local);
        if due >= until {
            return;
        }
        match src {
            SRC_FAIL => process_failure(local, global, due, dev, ctx, st, out),
            _ => process_radio(local, global, due, dev, ctx, st, out),
        }
    }
}

/// Run the fleet with the **event-driven** driver: one timer-wheel alarm
/// per device at its earliest deadline; work is O(events), devices idle
/// between their own events cost nothing. Sharded over `threads` (0 =
/// auto); the report is bit-identical at any thread count and to
/// [`run_fleet_per_tick`] at any tick size.
pub fn run_fleet_event_driven(cfg: &FleetConfig, threads: usize) -> FleetReport {
    run_fleet_with(cfg, threads, |range, devices, ctx| {
        let n = range.len();
        let mut st = ShardState::new(n);
        let mut out = ShardPartial::new();
        let mut wheel: TimerWheel<u32> = TimerWheel::with_capacity(n);
        for (local, global) in range.clone().enumerate() {
            init_device(local, global, &devices[global], ctx, &mut st);
            let (due, _) = st.min_due(local);
            if due < ctx.horizon_ms {
                wheel.schedule_at(SimTime::from_millis(due), local as u32);
            }
        }
        out.hot_bytes = st.soa_bytes() + wheel.approx_bytes() as u64;
        while let Some((at, local)) = wheel.pop() {
            let local = local as usize;
            let global = range.start + local;
            let t = at.as_millis();
            catch_up(
                local,
                global,
                t + 1,
                &devices[global],
                ctx,
                &mut st,
                &mut out,
            );
            let (due, _) = st.min_due(local);
            if due < ctx.horizon_ms {
                wheel.schedule_at(SimTime::from_millis(due), local as u32);
            }
        }
        collect_digest(&st, &mut out);
        out
    })
}

/// Run the fleet with the **per-tick baseline** driver: every `tick`, scan
/// every device and process its due events. O(devices × ticks) scanning —
/// the cost model the event-driven driver exists to beat — but byte-for-
/// byte the same report, which is what makes the speedup claim testable.
pub fn run_fleet_per_tick(cfg: &FleetConfig, tick: SimDuration, threads: usize) -> FleetReport {
    let tick_ms = tick.as_millis().max(1);
    run_fleet_with(cfg, threads, move |range, devices, ctx| {
        let n = range.len();
        let mut st = ShardState::new(n);
        let mut out = ShardPartial::new();
        for (local, global) in range.clone().enumerate() {
            init_device(local, global, &devices[global], ctx, &mut st);
        }
        out.hot_bytes = st.soa_bytes();
        let mut t = 0u64;
        while t < ctx.horizon_ms {
            let until = t.saturating_add(tick_ms).min(ctx.horizon_ms);
            for local in 0..n {
                let global = range.start + local;
                catch_up(
                    local,
                    global,
                    until,
                    &devices[global],
                    ctx,
                    &mut st,
                    &mut out,
                );
            }
            t = until;
        }
        collect_digest(&st, &mut out);
        out
    })
}

fn collect_digest(st: &ShardState, out: &mut ShardPartial) {
    for &d in &st.digest {
        out.digest = out.digest.wrapping_add(d);
    }
}

fn run_fleet_with<W>(cfg: &FleetConfig, threads: usize, worker: W) -> FleetReport
where
    W: Fn(std::ops::Range<usize>, &[DeviceProfile], &FleetCtx) -> ShardPartial + Sync,
{
    let (population, ctx) = fleet_ctx(cfg);
    let threads = resolve_threads(threads);
    let devices = population.devices();
    let shards = run_sharded(devices.len(), threads, |range| worker(range, devices, &ctx));
    let mut folded = ShardPartial::new();
    for shard in shards {
        folded.merge(shard);
    }
    FleetReport {
        devices: devices.len() as u64,
        days: cfg.days,
        candidates: folded.candidates,
        failures: folded.failures,
        radio_events: folded.radio_events,
        rat_changes: folded.rat_changes,
        digest: folded.digest,
        hot_bytes: folded.hot_bytes,
        metrics: folded.sink.into_registry(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet_metrics::{kind_counter, rat_counter};

    #[test]
    fn diurnal_peak_is_a_true_envelope() {
        let mut max = 0.0f64;
        for i in 0..24_000 {
            max = max.max(diurnal_factor(i as f64 / 1_000.0));
        }
        assert!(
            max < DIURNAL_PEAK,
            "diurnal max {max} exceeds envelope {DIURNAL_PEAK}"
        );
        // And the envelope is tight enough that thinning isn't wasteful.
        assert!(max > 0.8 * DIURNAL_PEAK, "envelope too loose: max {max}");
    }

    #[test]
    fn event_driven_matches_per_tick_at_any_tick_size() {
        let cfg = FleetConfig::small();
        let base = run_fleet_event_driven(&cfg, 1);
        assert!(base.failures > 0, "no failures in the small fleet");
        assert!(base.radio_events > 0);
        for tick in [
            SimDuration::from_hours(1),
            SimDuration::from_mins(13),
            SimDuration::from_hours(25),
        ] {
            let scan = run_fleet_per_tick(&cfg, tick, 1);
            assert_eq!(scan.digest, base.digest, "tick {tick}");
            assert_eq!(scan.candidates, base.candidates, "tick {tick}");
            assert_eq!(scan.failures, base.failures, "tick {tick}");
            assert_eq!(scan.radio_events, base.radio_events, "tick {tick}");
            assert_eq!(scan.rat_changes, base.rat_changes, "tick {tick}");
            assert_eq!(scan.metrics, base.metrics, "tick {tick}");
            assert_eq!(scan.metrics.digest(), base.metrics.digest());
        }
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let cfg = FleetConfig::small();
        let base = run_fleet_event_driven(&cfg, 1);
        for threads in [2usize, 3, 8] {
            let r = run_fleet_event_driven(&cfg, threads);
            assert_eq!(r.digest, base.digest, "threads={threads}");
            assert_eq!(r.failures, base.failures, "threads={threads}");
            assert_eq!(r.metrics, base.metrics, "threads={threads}");
            assert_eq!(r.metrics.digest(), base.metrics.digest());
        }
    }

    #[test]
    fn fleet_statistics_land_in_the_calibrated_bands() {
        let cfg = FleetConfig {
            population: PopulationConfig {
                devices: 8_000,
                ..Default::default()
            },
            bs_count: 2_000,
            ..FleetConfig::default()
        };
        let r = run_fleet_event_driven(&cfg, 0);
        assert_eq!(r.devices, 8_000);
        let failures = r.metrics.counter("fleet.failures");
        assert_eq!(failures, r.failures);
        // 30-day window: roughly 30/243 of the study's ~33 failures/device,
        // further thinned by the diurnal duty cycle — a broad sanity band.
        let per_device = r.failures as f64 / r.devices as f64;
        assert!(
            (0.5..8.0).contains(&per_device),
            "failures/device {per_device}"
        );
        // Kind mix: stalls ≈ 42 % of failures.
        let stalls = r.metrics.counter(kind_counter(FailureKind::DataStall)) as f64;
        let share = stalls / failures as f64;
        assert!((0.32..0.52).contains(&share), "stall share {share}");
        // In-situ RAT mix: 4G dominates, 3G is the idle middle child.
        let on = |rat| r.metrics.counter(rat_counter(rat));
        assert!(on(Rat::G4) > on(Rat::G2));
        assert!(on(Rat::G2) > on(Rat::G3));
        // The radio process actually moves devices around.
        assert!(r.rat_changes > 0 && r.rat_changes < r.radio_events);
    }

    #[test]
    fn hot_footprint_is_a_few_dozen_bytes_per_device() {
        let cfg = FleetConfig::small();
        let r = run_fleet_event_driven(&cfg, 1);
        let soa = ShardState::BYTES_PER_DEVICE as f64;
        let per_device = r.bytes_per_device();
        assert!(per_device >= soa, "reported {per_device} < SoA floor {soa}");
        assert!(
            per_device < 200.0,
            "hot bytes/device {per_device} too large"
        );
        // The per-tick driver carries no wheel, only the SoA arrays.
        let scan = run_fleet_per_tick(&cfg, SimDuration::from_hours(1), 1);
        assert_eq!(scan.hot_bytes, cfg.population.devices as u64 * soa as u64);
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let cfg = FleetConfig::small();
        let a = run_fleet_event_driven(&cfg, 2);
        let b = run_fleet_event_driven(&cfg, 2);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.events(), b.events());
    }
}
