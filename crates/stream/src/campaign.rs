//! Recovery drills: crash-transparency as an invariant, run as scenarios
//! of the [`cellrel_sim::campaign`] engine.
//!
//! A [`Drill`] is an uninterrupted baseline plus sampled kill points; kill
//! `i` is scenario `i`. The kill/restart drill here runs the pipeline up to
//! the sampled batch, keeps only what would survive a crash — the latest
//! durable checkpoint and the persisted segments — drops the live pipeline,
//! restores from the checkpoint, replays the remaining batches from the
//! restored cursor, and compares **everything observable** against the
//! baseline. Every observable that differs is its own [`Violation`], and a
//! restore or replay that returns `Err` is that kill's `recovers`
//! violation — one bad kill never hides the others. The cluster's failover
//! drill is the same [`Drill`] over a different run.

use crate::pipeline::{StreamConfig, StreamPipeline};
use crate::segment::MemSegments;
use crate::StreamError;
use cellrel_sim::campaign::{run_campaign, CampaignReport, ScenarioOutcome, Violation};
use cellrel_sim::SimRng;
use cellrel_store::DeviceDirectory;

/// Which kills a recovery drill performs. Shared with the cluster's
/// failover drill; checkpoint cadence stays with whoever checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Kill points to sample; kill `i` is scenario `i` of the campaign.
    pub kills: u64,
    /// RNG seed for kill-point selection.
    pub seed: u64,
}

/// What a finished run shows the outside, rendered: one `(invariant,
/// value)` per comparison a kill must pass.
pub type Observed = Vec<(&'static str, String)>;

/// One kill, run: where it landed, where recovery resumed, and the
/// scenario outcome the campaign folds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KillReplay {
    /// Batch index the kill landed after.
    pub kill_at: u64,
    /// Shard whose leader died (0 for the single-pipeline drill).
    pub shard: usize,
    /// Cursor recovery resumed from (≤ `kill_at`; batches between were
    /// re-offered and deduped upstream); `None` if it never got that far.
    pub restored_cursor: Option<u64>,
    /// Batches offered, coverage labels and violations of this kill.
    pub outcome: ScenarioOutcome,
}

impl KillReplay {
    /// Recovery resumed at `cursor`, `mid_window` if holding open windows.
    pub fn restored(&mut self, cursor: u64, mid_window: bool) {
        self.restored_cursor = Some(cursor);
        if mid_window {
            self.outcome.coverage.push("mid-window".into());
        }
    }

    fn violate(&mut self, invariant: &'static str, detail: String) {
        self.outcome.violations.push(Violation {
            scenario: self.outcome.scenario,
            invariant,
            event_index: self.kill_at,
            at_ms: 0,
            detail,
        });
    }
}

type RunOne<'a> = dyn Fn(Option<&mut KillReplay>) -> Result<Observed, String> + Sync + 'a;

/// A recovery drill on the campaign engine: an uninterrupted baseline, the
/// plan's kill points, and the run that takes a kill.
pub struct Drill<'a> {
    /// What the uninterrupted run showed; every kill must show the same.
    pub base: Observed,
    /// The uninterrupted run in one line, for whoever prints the campaign.
    pub baseline: String,
    points: Vec<(u64, usize)>,
    run_one: Box<RunOne<'a>>,
}

impl<'a> Drill<'a> {
    /// `run_one(None)` is the uninterrupted run; `run_one(Some(kill))`
    /// crashes after batch `kill.kill_at` on `kill.shard`, recovers — noting
    /// [`KillReplay::restored`], batches offered and coverage — and finishes.
    /// `point` draws each kill's `(kill_at, shard)`: all up front, in scenario
    /// order, from one `SimRng::new(plan.seed)`, so `plan` names the same
    /// points at any thread count. `Err` only if the baseline cannot run.
    pub fn new<E: std::fmt::Display>(
        plan: &KillPlan,
        mut point: impl FnMut(&mut SimRng) -> (u64, usize),
        run_one: impl Fn(Option<&mut KillReplay>) -> Result<Observed, E> + Sync + 'a,
    ) -> Result<Self, E> {
        let mut rng = SimRng::new(plan.seed);
        Ok(Drill {
            base: run_one(None)?,
            baseline: String::new(),
            points: (0..plan.kills).map(|_| point(&mut rng)).collect(),
            run_one: Box::new(move |kill| run_one(kill).map_err(|e| e.to_string())),
        })
    }

    /// Run kill `id` alone — identical to its run inside the campaign: one
    /// [`Violation`] at the kill's batch index per observable that differs
    /// from the baseline's, quoting the first line that does; an `Err` out
    /// of restore, promotion or replay is its `recovers` violation, not the
    /// campaign's error. Panics if the plan has no kill `id`.
    pub fn kill(&self, id: u64) -> KillReplay {
        let (kill_at, shard) = self.points[id as usize];
        let mut run = KillReplay {
            kill_at,
            shard,
            ..KillReplay::default()
        };
        run.outcome.scenario = id;
        match (self.run_one)(Some(&mut run)) {
            Err(e) => run.violate("recovers", e),
            Ok(got) => {
                for ((invariant, got), (_, want)) in got.iter().zip(&self.base) {
                    if got != want {
                        let same = |(g, w): &(&str, &str)| g == w;
                        let at = got.lines().zip(want.lines()).take_while(same).count();
                        let line = |s: &str| s.lines().nth(at).unwrap_or("<end>").to_string();
                        let detail = format!("line {}: {} != {}", at + 1, line(got), line(want));
                        run.violate(invariant, detail);
                    }
                }
            }
        }
        run
    }

    /// Run every kill on up to `threads` threads (0 = auto); the report is
    /// the same at any thread count and across reruns.
    pub fn run(&self, threads: usize) -> CampaignReport {
        run_campaign(self.points.len() as u64, threads, |id| {
            self.kill(id).outcome
        })
    }
}

fn observe(p: &StreamPipeline<'_>) -> Result<Observed, StreamError> {
    let (t1, t2) = p
        .tables(10)
        .map_err(|_| StreamError::Config("table query"))?;
    let (mut counters, manifest) = (*p.counters(), p.manifest());
    counters.restores = 0;
    let segments = manifest.len();
    Ok(vec![
        ("store-digest", format!("{:016x}", p.digest())),
        ("collector-digest", format!("{:016x}", p.collector_digest())),
        ("manifest", format!("{segments} segments\n{manifest:#?}")),
        ("table-1", t1.render()),
        ("table-2", t2.render()),
        ("counters", format!("{counters:#?}")),
    ])
}

/// One run over the whole stream. With `kill`: crash after its batch, come
/// back from what survived — `damage` gets at that first — and finish.
fn run_stream(
    cfg: &StreamConfig,
    checkpoint_every: u64,
    dir: &DeviceDirectory,
    batches: &[Vec<u8>],
    kill: Option<&mut KillReplay>,
    damage: impl FnOnce(&mut MemSegments),
) -> Result<Observed, StreamError> {
    let mut segs = MemSegments::new();
    let mut p = StreamPipeline::new(cfg, dir)?;
    if let Some(run) = kill {
        // Phase 1: live until the kill. Only `durable` (the latest checkpoint
        // blob) and `segs` (persisted segments) survive the crash.
        let mut durable = p.checkpoint();
        for (i, b) in batches[..run.kill_at as usize].iter().enumerate() {
            let sealed = p.offer(b, &mut segs)?;
            let cadence = checkpoint_every > 0 && (i as u64 + 1) % checkpoint_every == 0;
            if !sealed.is_empty() || cadence {
                durable = p.checkpoint();
            }
        }
        damage(&mut segs);
        // Phase 2: the crash — the live pipeline is replaced by one restored
        // from the checkpoint. Windows the pre-kill run sealed after it get
        // resealed on replay; determinism makes the rewritten segment bytes
        // identical, and `SegmentStore::put` overwrites idempotently.
        p = StreamPipeline::restore(&durable, dir, &segs)?;
        run.restored(p.cursor(), p.pending_windows() > 0);
        run.outcome.events = run.kill_at + batches.len() as u64 - p.cursor();
    }
    for b in &batches[p.cursor() as usize..] {
        p.offer(b, &mut segs)?;
    }
    p.flush(&mut segs)?;
    observe(&p)
}

/// The kill/restart drill over `batches`. `checkpoint_every` checkpoints
/// every N offered batches in addition to every seal (0 = only at seals);
/// mid-window kills need a non-seal cadence to land on a checkpoint with
/// open windows. `Err` only for what is wrong before any kill: fewer than
/// two batches (a kill needs a boundary strictly inside the stream), a
/// baseline that cannot run.
pub fn kill_restart_drill<'a>(
    cfg: &'a StreamConfig,
    plan: &KillPlan,
    checkpoint_every: u64,
    dir: &'a DeviceDirectory,
    batches: &'a [Vec<u8>],
) -> Result<Drill<'a>, StreamError> {
    let count = batches.len() as u64;
    if count < 2 {
        return Err(StreamError::Config(
            "a kill drill needs at least two batches",
        ));
    }
    let point = |rng: &mut SimRng| (rng.range_u64(1, count), 0);
    let mut drill = Drill::new(plan, point, move |kill| {
        run_stream(cfg, checkpoint_every, dir, batches, kill, |_| ())
    })?;
    let (digest, manifest) = (&drill.base[0].1, &drill.base[2].1);
    let segments = manifest.lines().next().unwrap_or_default();
    drill.baseline = format!("{count} batches, {segments}, store digest {digest}");
    Ok(drill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{batch, small_cfg};

    /// Three devices, a record every 2 s into 4 s windows: segments seal
    /// all along the stream.
    fn stream() -> Vec<Vec<u8>> {
        let at = |i: u64| [i * 2_000, i * 2_000 + 2_000];
        (0..12)
            .map(|i| batch((i % 3) as u32, i / 3, &at(i)))
            .collect()
    }

    fn failed(run: &KillReplay) -> Vec<(&'static str, u64, u64)> {
        let named = |v: &Violation| (v.invariant, v.scenario, v.event_index);
        run.outcome.violations.iter().map(named).collect()
    }

    /// The drill can fail, and says everything that failed — not only the
    /// first divergence.
    #[test]
    fn a_doctored_baseline_fails_every_comparison_it_breaks() {
        let (cfg, dir, batches) = (small_cfg(), DeviceDirectory::default(), stream());
        let plan = KillPlan {
            kills: 3,
            seed: 2021,
        };
        let mut drill = kill_restart_drill(&cfg, &plan, 5, &dir, &batches).expect("baseline runs");
        assert_eq!(drill.run(1).violations, []);
        drill.base[0].1.push('!');
        drill.base[3].1.push_str("not in table 1\n");
        let run = drill.kill(2);
        let at = run.kill_at;
        assert_eq!(failed(&run), [("store-digest", 2, at), ("table-1", 2, at)]);
    }

    #[test]
    fn a_lost_segment_is_that_kills_violation_not_the_campaigns_error() {
        let (cfg, dir, batches) = (small_cfg(), DeviceDirectory::default(), stream());
        let plan = KillPlan { kills: 2, seed: 0 };
        let drill = Drill::new(
            &plan,
            |_| (11, 0),
            |kill| {
                run_stream(&cfg, 5, &dir, &batches, kill, |segs| {
                    let lost = segs.raw_mut().pop_first();
                    lost.expect("a sealed segment survived the crash");
                })
            },
        );
        let run = drill.expect("baseline runs").kill(1);
        assert_eq!(run.restored_cursor, None);
        assert_eq!(failed(&run), [("recovers", 1, 11)]);
        let detail = &run.outcome.violations[0].detail;
        assert!(detail.contains("segment missing"), "{detail}");
    }
}
