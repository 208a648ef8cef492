//! Kill/restart fault campaign: crash-transparency as an invariant.
//!
//! For each kill point the campaign runs the pipeline up to a random
//! batch, keeps only what would survive a crash — the latest durable
//! checkpoint and the persisted segments — drops the live pipeline,
//! restores from the checkpoint, replays the remaining batches from the
//! restored cursor, and compares **everything observable** against an
//! uninterrupted run over the same batch stream: final store digest,
//! collector digest, Tables 1/2 renders, the full segment manifest, and
//! the stream counters. Any divergence — a record lost at the kill, a
//! window double-sealed on replay, a tier rebuilt wrong — fails that kill.

use crate::pipeline::{StreamConfig, StreamCounters, StreamPipeline};
use crate::segment::{MemSegments, SegmentEntry};
use crate::StreamError;
use cellrel_sim::{Digest64, SimRng};
use cellrel_store::DeviceDirectory;

/// Campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct KillRestartConfig {
    /// Kill points to sample (each is an independent run).
    pub kills: usize,
    /// RNG seed for kill-point selection.
    pub seed: u64,
    /// Checkpoint every N offered batches in addition to every seal
    /// (0 = checkpoint only at seals). Mid-window kills need a non-seal
    /// cadence to land on a checkpoint with open windows.
    pub checkpoint_every: u64,
}

impl Default for KillRestartConfig {
    fn default() -> Self {
        KillRestartConfig {
            kills: 32,
            seed: 2021,
            checkpoint_every: 5,
        }
    }
}

/// What one kill/restart run observed.
#[derive(Debug, Clone)]
pub struct KillOutcome {
    /// Batch index the kill landed after.
    pub kill_at: u64,
    /// Cursor the durable checkpoint put the restored pipeline at (≤
    /// `kill_at`; batches between were re-offered and deduped upstream).
    pub restored_cursor: u64,
    /// The restored checkpoint held open (unsealed) windows.
    pub mid_window: bool,
    /// All final state matched the uninterrupted run.
    pub ok: bool,
    /// What diverged, when `ok` is false.
    pub detail: String,
}

/// Campaign verdict.
#[derive(Debug, Clone)]
pub struct KillRestartReport {
    /// Per-kill outcomes, in sampling order.
    pub outcomes: Vec<KillOutcome>,
    /// Uninterrupted-run final store digest all kills must reproduce.
    pub baseline_digest: u64,
    /// Uninterrupted-run manifest length (windows + late segments).
    pub baseline_segments: u64,
    /// Kills whose restore point held an open window.
    pub mid_window_kills: u64,
    /// Kills that diverged.
    pub failures: u64,
    /// Content digest over the whole campaign (CI reruns compare this).
    pub digest: u64,
}

struct Baseline {
    digest: u64,
    collector_digest: u64,
    manifest: Vec<SegmentEntry>,
    counters: StreamCounters,
    t1: String,
    t2: String,
}

fn run_to_end(
    cfg: &StreamConfig,
    dir: &DeviceDirectory,
    batches: &[Vec<u8>],
) -> Result<Baseline, StreamError> {
    let mut segs = MemSegments::new();
    let mut p = StreamPipeline::new(cfg, dir)?;
    for b in batches {
        p.offer(b, &mut segs)?;
    }
    p.flush(&mut segs)?;
    let (t1, t2) = p
        .tables(10)
        .map_err(|_| StreamError::Config("table query"))?;
    Ok(Baseline {
        digest: p.digest(),
        collector_digest: p.collector_digest(),
        manifest: p.manifest().to_vec(),
        counters: *p.counters(),
        t1: t1.render(),
        t2: t2.render(),
    })
}

/// Run the campaign. Deterministic: the same `(cfg, kcfg, batches)` yield
/// the same report digest at any thread count (the campaign is
/// sequential) and across reruns.
pub fn run_kill_restart(
    cfg: &StreamConfig,
    kcfg: &KillRestartConfig,
    dir: &DeviceDirectory,
    batches: &[Vec<u8>],
) -> Result<KillRestartReport, StreamError> {
    if batches.len() < 2 {
        return Err(StreamError::Config(
            "kill campaign needs at least 2 batches",
        ));
    }
    let base = run_to_end(cfg, dir, batches)?;
    let mut rng = SimRng::new(kcfg.seed);
    let mut outcomes = Vec::with_capacity(kcfg.kills);
    let mut mid_window_kills = 0u64;
    let mut failures = 0u64;
    for _ in 0..kcfg.kills {
        let kill_at = rng.range_u64(1, batches.len() as u64);
        let outcome = one_kill(cfg, kcfg, dir, batches, kill_at, &base)?;
        mid_window_kills += u64::from(outcome.mid_window);
        failures += u64::from(!outcome.ok);
        outcomes.push(outcome);
    }
    let mut d = Digest64::new();
    d.write_u64(base.digest);
    d.write_u64(base.collector_digest);
    d.write_u64(base.manifest.len() as u64);
    for o in &outcomes {
        d.write_u64(o.kill_at);
        d.write_u64(o.restored_cursor);
        d.write_u64(u64::from(o.mid_window));
        d.write_u64(u64::from(o.ok));
    }
    Ok(KillRestartReport {
        outcomes,
        baseline_digest: base.digest,
        baseline_segments: base.manifest.len() as u64,
        mid_window_kills,
        failures,
        digest: d.finish(),
    })
}

fn one_kill(
    cfg: &StreamConfig,
    kcfg: &KillRestartConfig,
    dir: &DeviceDirectory,
    batches: &[Vec<u8>],
    kill_at: u64,
    base: &Baseline,
) -> Result<KillOutcome, StreamError> {
    // Phase 1: live until the kill. Only `durable` (the latest checkpoint
    // blob) and `segs` (persisted segments) survive the drop below.
    let mut segs = MemSegments::new();
    let mut p = StreamPipeline::new(cfg, dir)?;
    let mut durable = p.checkpoint();
    for (i, b) in batches[..kill_at as usize].iter().enumerate() {
        let sealed = p.offer(b, &mut segs)?;
        let cadence = kcfg.checkpoint_every > 0 && (i as u64 + 1) % kcfg.checkpoint_every == 0;
        if !sealed.is_empty() || cadence {
            durable = p.checkpoint();
        }
    }
    drop(p); // the crash: all live state is gone

    // Phase 2: restore and replay the un-checkpointed suffix. Windows the
    // pre-kill run sealed after the checkpoint get resealed on replay;
    // determinism makes the rewritten segment bytes identical, and
    // `SegmentStore::put` overwrites idempotently.
    let mut r = StreamPipeline::restore(&durable, dir, &segs)?;
    let restored_cursor = r.cursor();
    let mid_window = r.pending_windows() > 0;
    for b in &batches[restored_cursor as usize..] {
        r.offer(b, &mut segs)?;
    }
    r.flush(&mut segs)?;

    let (t1, t2) = r
        .tables(10)
        .map_err(|_| StreamError::Config("table query"))?;
    let mut replay_counters = *r.counters();
    replay_counters.restores = 0;
    let mut detail = String::new();
    if r.digest() != base.digest {
        detail = format!("store digest {:016x} != {:016x}", r.digest(), base.digest);
    } else if r.collector_digest() != base.collector_digest {
        detail = "collector digest diverged".to_string();
    } else if r.manifest() != &base.manifest[..] {
        detail = format!(
            "manifest diverged ({} segments vs {})",
            r.manifest().len(),
            base.manifest.len()
        );
    } else if t1.render() != base.t1 {
        detail = "table 1 diverged".to_string();
    } else if t2.render() != base.t2 {
        detail = "table 2 diverged".to_string();
    } else if replay_counters != base.counters {
        detail = format!(
            "counters diverged: {replay_counters:?} vs {:?}",
            base.counters
        );
    }
    Ok(KillOutcome {
        kill_at,
        restored_cursor,
        mid_window,
        ok: detail.is_empty(),
        detail,
    })
}
