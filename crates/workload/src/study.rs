//! The macro population study driver.
//!
//! Generates the full eight-month failure dataset for a synthetic
//! population: per-device failure counts (Table 1 calibration), per-failure
//! kind / RAT / signal level / BS / cause / duration, all drawn from the
//! calibrated samplers of the sibling modules. The output is a flat
//! [`StudyDataset`] the analysis crate consumes.

use crate::bs_assign::BsAssigner;
use crate::durations;
use crate::exposure::FailureLevelSampler;
use crate::population::{DeviceProfile, Population, PopulationConfig};
use cellrel_modem::cause_mix::CauseMix;
use cellrel_sim::{resolve_threads, run_sharded, Merge, SimRng};
use cellrel_types::{
    Apn, EventSink, FailureEvent, FailureKind, InSituInfo, Rat, SimDuration, SimTime,
};

/// Macro study parameters.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Population parameters.
    pub population: PopulationConfig,
    /// Study length in days (the paper: 8 months ≈ 243 days).
    pub days: u64,
    /// Number of base stations in the macro directory.
    pub bs_count: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            population: PopulationConfig::default(),
            days: 243,
            bs_count: 20_000,
            seed: 2020,
        }
    }
}

impl StudyConfig {
    /// A small configuration for unit tests.
    pub fn small() -> Self {
        StudyConfig {
            population: PopulationConfig {
                devices: 3_000,
                ..Default::default()
            },
            bs_count: 2_000,
            ..Default::default()
        }
    }
}

/// Share of failures by kind (§3.1: averages of 16 setup errors, 14 stalls,
/// 3 out-of-service per phone, plus the <1 % legacy bucket).
pub const KIND_WEIGHTS: [f64; 5] = [0.48, 0.42, 0.09, 0.008, 0.002];

/// Out_of_Service is highly concentrated: 95 % of phones never see one
/// (§3.1), yet OOS is 9 % of all failures — so the OOS mass sits on a small
/// "OOS-prone" slice of the failing population (poor-coverage homes, remote
/// regions). Fraction of *failing* devices that are OOS-prone:
pub const OOS_PRONE_SHARE: f64 = 0.22;

/// Kind weights for OOS-prone devices: the population OOS share divided by
/// the prone share, with the remainder scaled down proportionally.
pub fn kind_weights_for(oos_prone: bool) -> [f64; 5] {
    if oos_prone {
        let w_oos = KIND_WEIGHTS[2] / OOS_PRONE_SHARE;
        let scale =
            (1.0 - w_oos - KIND_WEIGHTS[3] - KIND_WEIGHTS[4]) / (KIND_WEIGHTS[0] + KIND_WEIGHTS[1]);
        [
            KIND_WEIGHTS[0] * scale,
            KIND_WEIGHTS[1] * scale,
            w_oos,
            KIND_WEIGHTS[3],
            KIND_WEIGHTS[4],
        ]
    } else {
        let scale = (1.0 - KIND_WEIGHTS[3] - KIND_WEIGHTS[4]) / (KIND_WEIGHTS[0] + KIND_WEIGHTS[1]);
        [
            KIND_WEIGHTS[0] * scale,
            KIND_WEIGHTS[1] * scale,
            0.0,
            KIND_WEIGHTS[3],
            KIND_WEIGHTS[4],
        ]
    }
}

/// The generated dataset.
#[derive(Debug)]
pub struct StudyDataset {
    /// The configuration that produced the dataset.
    pub config: StudyConfig,
    /// The device population.
    pub population: Population,
    /// Every recorded (true) failure.
    pub events: Vec<FailureEvent>,
    /// Per-device failure counts (indexed by `DeviceId`).
    pub per_device_counts: Vec<u32>,
    /// The BS directory used for attribution.
    pub bs: BsAssigner,
}

impl StudyDataset {
    /// Study window length.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_days(self.config.days)
    }

    /// Fraction of devices with ≥1 failure. An empty population has no
    /// failing devices, so the rate is 0 rather than 0/0.
    pub fn overall_prevalence(&self) -> f64 {
        if self.per_device_counts.is_empty() {
            return 0.0;
        }
        let failing = self.per_device_counts.iter().filter(|&&c| c > 0).count();
        failing as f64 / self.per_device_counts.len() as f64
    }

    /// Mean failures per device (including zero-failure devices); 0 for an
    /// empty population.
    pub fn overall_frequency(&self) -> f64 {
        if self.per_device_counts.is_empty() {
            return 0.0;
        }
        self.events.len() as f64 / self.per_device_counts.len() as f64
    }
}

/// RAT usage mix for failures, by device capability. Non-5G devices live
/// mostly on 4G with legacy fallback; 5G devices (all Android 10, blind 5G
/// preference during the measurement period) shift a large share onto 5G.
pub(crate) fn rat_mix(has_5g: bool) -> ([Rat; 4], [f64; 4]) {
    const RATS: [Rat; 4] = [Rat::G2, Rat::G3, Rat::G4, Rat::G5];
    if has_5g {
        (RATS, [0.05, 0.03, 0.52, 0.40])
    } else {
        (RATS, [0.12, 0.06, 0.82, 0.0])
    }
}

/// Read-only per-run context shared by every shard of a study run.
struct StudyCtx {
    bs: BsAssigner,
    level_sampler: FailureLevelSampler,
    cause_mix: CauseMix,
    window_ms: u64,
    /// Root of the event-stream randomness; each device derives its own
    /// substream from `(event_root, device_id)` alone, so event draws are
    /// independent of iteration order and shard layout.
    event_root: u64,
}

/// Build the population, BS directory and shared samplers for a run. The
/// world-generation draws stay on the sequential root stream (identical to
/// the pre-parallel driver); only the event stream is per-device.
fn study_ctx(cfg: &StudyConfig) -> (Population, StudyCtx) {
    let mut rng = SimRng::new(cfg.seed);
    let population = Population::generate(&cfg.population, &mut rng);
    let bs = BsAssigner::new(cfg.bs_count, &mut rng);
    let event_root = rng.fork(0xEE).seed();
    let ctx = StudyCtx {
        bs,
        level_sampler: FailureLevelSampler::new(),
        cause_mix: CauseMix::table2(),
        window_ms: cfg.days * 86_400_000,
        event_root,
    };
    (population, ctx)
}

/// Generate one device's failures into `sink` from the device's own
/// substream; returns the device's failure count (0 if it never fails).
fn emit_device_failures(dev: &DeviceProfile, ctx: &StudyCtx, sink: &mut impl EventSink) -> u32 {
    let mut ev_rng = SimRng::for_substream(ctx.event_root, dev.id.0 as u64);
    if !ev_rng.chance(dev.failure_prevalence()) {
        return 0;
    }
    let count = draw_failure_count(dev, &mut ev_rng);
    let (rats, rat_weights) = rat_mix(dev.spec().hw.has_5g_modem);
    let oos_prone = dev.remote_region || ev_rng.chance(OOS_PRONE_SHARE - 0.03);
    let kind_weights = kind_weights_for(oos_prone);
    for _ in 0..count {
        let kind = match ev_rng.weighted_index(&kind_weights) {
            0 => FailureKind::DataSetupError,
            1 => FailureKind::DataStall,
            2 => FailureKind::OutOfService,
            3 => FailureKind::SmsSendFail,
            _ => FailureKind::VoiceSetupFail,
        };
        let rat = rats[ev_rng.weighted_index(&rat_weights)];
        let level = ctx.level_sampler.sample(rat, &mut ev_rng);
        let site = ctx.bs.assign(dev.isp, rat, &mut ev_rng);
        let cause =
            (kind == FailureKind::DataSetupError).then(|| ctx.cause_mix.sample(&mut ev_rng));
        let duration = durations::sample_duration(kind, &mut ev_rng, dev.remote_region);
        let start = SimTime::from_millis(ev_rng.range_u64(0, ctx.window_ms));
        sink.record(&FailureEvent {
            device: dev.id,
            kind,
            start,
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
    count
}

/// Run the macro study sharded over up to `threads` scoped threads
/// (`0` = auto: `CELLREL_THREADS` or the machine's available parallelism).
///
/// Each shard generates a contiguous slice of devices into its own sink
/// built by `make_sink`; shard sinks are folded in shard order with
/// [`Merge`] at the end. Because every device draws from its own substream
/// and shards are contiguous, the result is **bit-identical at any thread
/// count**, including 1. Events are handed to the shard's sink as they are
/// generated, never materialised, so a fleet of 10⁶+ devices runs in memory
/// bounded by the BS directory, the per-device counts and what the sinks
/// keep.
pub fn run_macro_study_parallel<S, F>(
    cfg: &StudyConfig,
    threads: usize,
    make_sink: F,
) -> (Population, Vec<u32>, BsAssigner, S)
where
    S: EventSink + Merge + Send,
    F: Fn() -> S + Sync,
{
    let (population, ctx) = study_ctx(cfg);
    let threads = resolve_threads(threads);
    let devices = population.devices();
    let shards = run_sharded(devices.len(), threads, |range| {
        let mut sink = make_sink();
        let mut counts = Vec::with_capacity(range.len());
        for dev in &devices[range] {
            counts.push(emit_device_failures(dev, &ctx, &mut sink));
        }
        (counts, sink)
    });
    let mut per_device_counts = Vec::with_capacity(devices.len());
    let mut merged: Option<S> = None;
    for (counts, sink) in shards {
        per_device_counts.extend(counts);
        match merged.as_mut() {
            Some(m) => m.merge(sink),
            None => merged = Some(sink),
        }
    }
    let sink = merged.unwrap_or_else(&make_sink);
    (population, per_device_counts, ctx.bs, sink)
}

/// Run the macro study, materialising the full event list. Uses the
/// parallel driver with the auto thread count; output does not depend on
/// the thread count.
pub fn run_macro_study(cfg: &StudyConfig) -> StudyDataset {
    let (population, per_device_counts, bs, events) = run_macro_study_parallel(cfg, 0, Vec::new);
    StudyDataset {
        config: *cfg,
        population,
        events,
        per_device_counts,
        bs,
    }
}

/// Per-failing-device failure count: mean = the model's conditional mean ×
/// proneness, drawn as a Poisson mixture (log-normal proneness already makes
/// the marginal heavy-tailed).
fn draw_failure_count(dev: &DeviceProfile, rng: &mut SimRng) -> u32 {
    let mean = dev.conditional_mean_failures().max(1.0);
    rng.poisson(mean).clamp(1, 500_000) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_types::{Isp, PhoneModelId};

    fn dataset(seed: u64) -> StudyDataset {
        run_macro_study(&StudyConfig {
            seed,
            population: PopulationConfig {
                devices: 12_000,
                ..Default::default()
            },
            bs_count: 4_000,
            ..Default::default()
        })
    }

    #[test]
    fn overall_prevalence_and_frequency_recover_table1() {
        let d = dataset(1);
        let prev = d.overall_prevalence();
        let freq = d.overall_frequency();
        // Paper: 23 % prevalence, 33 failures/device on average.
        assert!((0.17..0.28).contains(&prev), "prevalence {prev}");
        assert!((22.0..45.0).contains(&freq), "frequency {freq}");
    }

    #[test]
    fn per_model_prevalence_tracks_calibration() {
        let d = dataset(2);
        // Check a high-population, high-prevalence model and a near-zero one.
        for (model, expect, tol) in [
            (PhoneModelId(28), 0.28 * 1.0, 0.06),
            (PhoneModelId(8), 0.0015, 0.01),
        ] {
            let devs: Vec<_> = d
                .population
                .devices()
                .iter()
                .filter(|x| x.model == model)
                .collect();
            assert!(devs.len() > 50, "not enough devices of {model}");
            let failing = devs
                .iter()
                .filter(|x| d.per_device_counts[x.id.0 as usize] > 0)
                .count();
            let prev = failing as f64 / devs.len() as f64;
            assert!(
                (prev - expect).abs() < tol,
                "{model}: prevalence {prev} vs {expect}"
            );
        }
    }

    #[test]
    fn kind_mix_matches_config() {
        let d = dataset(3);
        let n = d.events.len() as f64;
        let stalls = d
            .events
            .iter()
            .filter(|e| e.kind == FailureKind::DataStall)
            .count() as f64
            / n;
        assert!((stalls - 0.42).abs() < 0.02, "stall share {stalls}");
        let major = d.events.iter().filter(|e| e.kind.is_major()).count() as f64 / n;
        assert!(major > 0.98, "major kinds {major}");
    }

    #[test]
    fn isp_prevalence_ordering_matches_fig12() {
        let d = dataset(4);
        let prev_of = |isp: Isp| {
            let devs: Vec<_> = d
                .population
                .devices()
                .iter()
                .filter(|x| x.isp == isp)
                .collect();
            devs.iter()
                .filter(|x| d.per_device_counts[x.id.0 as usize] > 0)
                .count() as f64
                / devs.len() as f64
        };
        let (a, b, c) = (prev_of(Isp::A), prev_of(Isp::B), prev_of(Isp::C));
        assert!(b > a && a > c, "ISP prevalence A={a} B={b} C={c}");
    }

    #[test]
    fn setup_errors_carry_causes_others_do_not() {
        let d = dataset(5);
        for e in &d.events {
            match e.kind {
                FailureKind::DataSetupError => assert!(e.cause.is_some()),
                _ => assert!(e.cause.is_none()),
            }
        }
    }

    #[test]
    fn five_g_failures_only_on_5g_devices() {
        let d = dataset(6);
        for e in &d.events {
            if e.ctx.rat == cellrel_types::Rat::G5 {
                let dev = &d.population.devices()[e.device.0 as usize];
                assert!(dev.spec().hw.has_5g_modem);
            }
        }
    }

    #[test]
    fn events_fall_inside_the_window() {
        let d = dataset(7);
        let window = d.window();
        for e in &d.events {
            assert!(e.start.since(SimTime::ZERO) <= window);
        }
    }

    #[test]
    fn streaming_matches_materialised() {
        let cfg = StudyConfig {
            seed: 77,
            population: PopulationConfig {
                devices: 1_000,
                ..Default::default()
            },
            bs_count: 1_000,
            ..Default::default()
        };
        let full = run_macro_study(&cfg);
        /// A sink that keeps two sums and no event.
        #[derive(Default)]
        struct Tally {
            count: usize,
            duration_sum: u64,
        }
        impl EventSink for Tally {
            fn record(&mut self, e: &FailureEvent) {
                self.count += 1;
                self.duration_sum += e.duration.as_millis();
            }
        }
        impl Merge for Tally {
            fn merge(&mut self, o: Self) {
                self.count += o.count;
                self.duration_sum += o.duration_sum;
            }
        }
        let (_, per_device, _, tally) = run_macro_study_parallel(&cfg, 3, Tally::default);
        assert_eq!(tally.count, full.events.len());
        assert_eq!(per_device, full.per_device_counts);
        let full_sum: u64 = full.events.iter().map(|e| e.duration.as_millis()).sum();
        assert_eq!(tally.duration_sum, full_sum);
        // The parallel path produces the same bytes at every thread count.
        for threads in [1usize, 2, 8] {
            let (_, par_counts, _, par_events) = run_macro_study_parallel(&cfg, threads, Vec::new);
            assert_eq!(par_counts, full.per_device_counts, "threads={threads}");
            assert_eq!(par_events, full.events, "threads={threads}");
        }
    }

    #[test]
    fn parallel_is_thread_count_invariant() {
        let cfg = StudyConfig {
            seed: 99,
            population: PopulationConfig {
                devices: 600,
                ..Default::default()
            },
            bs_count: 500,
            ..Default::default()
        };
        let (_, base_counts, _, base_events) =
            run_macro_study_parallel::<Vec<FailureEvent>, _>(&cfg, 1, Vec::new);
        for threads in [2usize, 3, 8] {
            let (_, counts, _, events) = run_macro_study_parallel(&cfg, threads, Vec::new);
            assert_eq!(counts, base_counts, "threads={threads}");
            assert_eq!(events, base_events, "threads={threads}");
        }
    }

    #[test]
    fn empty_dataset_rates_are_zero_not_nan() {
        let mut rng = SimRng::new(1);
        let d = StudyDataset {
            config: StudyConfig::default(),
            population: Population::empty(),
            events: Vec::new(),
            per_device_counts: Vec::new(),
            bs: BsAssigner::new(10, &mut rng),
        };
        assert_eq!(d.overall_prevalence(), 0.0);
        assert_eq!(d.overall_frequency(), 0.0);
    }

    #[test]
    fn study_is_deterministic() {
        let a = dataset(8);
        let b = dataset(8);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.per_device_counts, b.per_device_counts);
        assert_eq!(a.events.first(), b.events.first());
        assert_eq!(a.events.last(), b.events.last());
    }
}
