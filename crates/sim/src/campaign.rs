//! Deterministic fault-campaign engine.
//!
//! A *campaign* enumerates seeded scenarios `0..n` and runs each one through
//! a caller-supplied closure on the [`crate::par::run_sharded`] kernel. The
//! engine knows nothing about what a scenario simulates — it supplies the
//! generic machinery every campaign needs:
//!
//! * [`Invariant`] / [`InvariantRegistry`] — stateful cross-stack checks a
//!   scenario harness evaluates after every event step;
//! * [`Violation`] — a minimal repro record `(scenario, invariant,
//!   event_index, at_ms, detail)`: together with the campaign's root seed it
//!   pinpoints one event of one deterministic scenario, so a replay of that
//!   scenario reproduces the failure byte-identically;
//! * [`ScenarioOutcome`] / [`CampaignReport`] — per-scenario results and
//!   their order-preserving fold ([`Merge`]), so the report is identical at
//!   any thread count;
//! * [`Digest64`] — an FNV-1a content digest of the report, the value CI
//!   compares across re-runs and thread counts.
//!
//! Scenario determinism is the caller's contract: a scenario's behaviour
//! must depend only on `(root_seed, scenario_id)` — derive all randomness
//! via [`crate::SimRng::for_substream`] and never read host state.

use crate::par::{resolve_threads, run_sharded_merge, Merge};
use std::collections::BTreeMap;

/// A minimal repro record for one invariant failure.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Violation {
    /// Scenario index within the campaign.
    pub scenario: u64,
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// 1-based index of the event step at which the check failed (0 for
    /// finish-phase checks reported before any event fired).
    pub event_index: u64,
    /// Simulation time of the step, in milliseconds.
    pub at_ms: u64,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario {} event #{} at {} ms: [{}] {}",
            self.scenario, self.event_index, self.at_ms, self.invariant, self.detail
        )
    }
}

/// A stateful cross-stack invariant, checked after every event step of one
/// scenario. One instance is created per scenario (state never leaks across
/// scenarios), so implementations may accumulate whatever bookkeeping the
/// property needs (last recovery stage seen, open episodes, …).
pub trait Invariant<V> {
    /// Stable name, used in violation records and coverage tables.
    fn name(&self) -> &'static str;

    /// Check the invariant against the view of the just-executed step.
    /// Return `Err(detail)` to report a violation; checking continues (one
    /// broken invariant must not mask others).
    fn check(&mut self, view: &V) -> Result<(), String>;

    /// Final check after the scenario's last event (quiesced state).
    fn finish(&mut self, view: &V) -> Result<(), String> {
        let _ = view;
        Ok(())
    }
}

/// An ordered collection of invariants driven by a scenario harness.
pub struct InvariantRegistry<V> {
    invariants: Vec<Box<dyn Invariant<V>>>,
}

impl<V> Default for InvariantRegistry<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> InvariantRegistry<V> {
    /// An empty registry.
    pub fn new() -> Self {
        InvariantRegistry {
            invariants: Vec::new(),
        }
    }

    /// Add an invariant. Registration order is check order (and therefore
    /// violation order — keep it deterministic).
    pub fn register(&mut self, inv: impl Invariant<V> + 'static) -> &mut Self {
        self.invariants.push(Box::new(inv));
        self
    }

    /// Number of registered invariants.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.invariants.len()
    }

    /// Names of the registered invariants, in check order.
    #[cfg(test)]
    pub(crate) fn names(&self) -> Vec<&'static str> {
        self.invariants.iter().map(|i| i.name()).collect()
    }

    /// Run every invariant against one event step's view, appending a
    /// [`Violation`] per failed check.
    pub fn check_step(
        &mut self,
        scenario: u64,
        event_index: u64,
        at_ms: u64,
        view: &V,
        out: &mut Vec<Violation>,
    ) {
        for inv in &mut self.invariants {
            if let Err(detail) = inv.check(view) {
                out.push(Violation {
                    scenario,
                    invariant: inv.name(),
                    event_index,
                    at_ms,
                    detail,
                });
            }
        }
    }

    /// Run every invariant's finish-phase check against the final view.
    pub fn check_finish(
        &mut self,
        scenario: u64,
        event_index: u64,
        at_ms: u64,
        view: &V,
        out: &mut Vec<Violation>,
    ) {
        for inv in &mut self.invariants {
            if let Err(detail) = inv.finish(view) {
                out.push(Violation {
                    scenario,
                    invariant: inv.name(),
                    event_index,
                    at_ms,
                    detail,
                });
            }
        }
    }
}

/// The result of one scenario run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Scenario index.
    pub scenario: u64,
    /// Events dispatched.
    pub events: u64,
    /// Invariant violations, in detection order.
    pub violations: Vec<Violation>,
    /// Coverage labels this scenario exercised (e.g. `fault:blackhole`).
    pub coverage: Vec<String>,
}

/// The campaign-wide fold of [`ScenarioOutcome`]s. Scenario order is
/// preserved (shards are contiguous and folded in shard order), so two runs
/// at different thread counts produce byte-identical reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Scenarios executed.
    pub scenarios: u64,
    /// Total events dispatched across all scenarios.
    pub events: u64,
    /// All violations, ordered by scenario then detection order.
    pub violations: Vec<Violation>,
    /// How many scenarios exercised each coverage label.
    pub coverage: BTreeMap<String, u64>,
}

impl CampaignReport {
    /// Fold one scenario's outcome into the report.
    pub fn absorb(&mut self, outcome: ScenarioOutcome) {
        self.scenarios += 1;
        self.events += outcome.events;
        self.violations.extend(outcome.violations);
        for label in outcome.coverage {
            *self.coverage.entry(label).or_insert(0) += 1;
        }
    }

    /// Content digest of the report: any difference in scenario count,
    /// event totals, violations, or coverage changes the digest. This is
    /// the determinism witness CI compares across re-runs and thread
    /// counts.
    pub fn digest(&self) -> u64 {
        let mut d = Digest64::new();
        d.write_u64(self.scenarios);
        d.write_u64(self.events);
        d.write_u64(self.violations.len() as u64);
        for v in &self.violations {
            d.write_u64(v.scenario);
            d.write_str(v.invariant);
            d.write_u64(v.event_index);
            d.write_u64(v.at_ms);
            d.write_str(&v.detail);
        }
        d.write_u64(self.coverage.len() as u64);
        for (label, count) in &self.coverage {
            d.write_str(label);
            d.write_u64(*count);
        }
        d.finish()
    }
}

impl Merge for CampaignReport {
    fn merge(&mut self, other: Self) {
        self.scenarios += other.scenarios;
        self.events += other.events;
        self.violations.extend(other.violations);
        for (label, count) in other.coverage {
            *self.coverage.entry(label).or_insert(0) += count;
        }
    }
}

/// A 64-bit FNV-1a hasher for deterministic content digests. `std`'s
/// `DefaultHasher` is explicitly unstable across releases; campaign digests
/// must be comparable across builds, so the function is pinned here.
#[derive(Debug, Clone, Copy)]
pub struct Digest64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`: absorbing `k` zero bytes is one
/// multiply by `PRIME_POW[k]`, since `(h ^ 0) * P = h * P`.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl Default for Digest64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest64 {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Digest64(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian): exactly `write_bytes` of its eight
    /// bytes, but the zero bytes above its significant ones cost one
    /// multiply between them.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let n = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
        let mut h = self.0;
        for i in 0..n {
            h ^= (v >> (8 * i)) & 0xff;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h.wrapping_mul(PRIME_POW[8 - n]);
    }

    /// Absorb a string, length-prefixed so concatenations can't collide
    /// with shifted boundaries.
    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Run a campaign of `scenarios` scenarios across up to `threads` threads
/// (0 = auto via `CELLREL_THREADS`), folding per-scenario outcomes into one
/// [`CampaignReport`] in scenario order.
///
/// `run_one` must be deterministic in its scenario index alone (derive all
/// randomness from a root seed via [`crate::SimRng::for_substream`]); the
/// report — including its [`CampaignReport::digest`] — is then identical at
/// every thread count.
pub fn run_campaign<F>(scenarios: u64, threads: usize, run_one: F) -> CampaignReport
where
    F: Fn(u64) -> ScenarioOutcome + Sync,
{
    let threads = resolve_threads(threads);
    run_sharded_merge(scenarios as usize, threads, |range| {
        let mut report = CampaignReport::default();
        for idx in range {
            report.absorb(run_one(idx as u64));
        }
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy view: the step's value plus a running flag.
    struct View {
        value: u64,
        finished: bool,
    }

    /// Fails whenever the value is odd.
    struct NoOdd;
    impl Invariant<View> for NoOdd {
        fn name(&self) -> &'static str {
            "no-odd"
        }
        fn check(&mut self, view: &View) -> Result<(), String> {
            if view.value % 2 == 1 {
                Err(format!("odd value {}", view.value))
            } else {
                Ok(())
            }
        }
        fn finish(&mut self, view: &View) -> Result<(), String> {
            if view.finished {
                Ok(())
            } else {
                Err("scenario did not finish".into())
            }
        }
    }

    /// Stateful: values must never decrease.
    #[derive(Default)]
    struct Monotone {
        last: Option<u64>,
    }
    impl Invariant<View> for Monotone {
        fn name(&self) -> &'static str {
            "monotone"
        }
        fn check(&mut self, view: &View) -> Result<(), String> {
            if let Some(last) = self.last {
                if view.value < last {
                    return Err(format!("{} after {last}", view.value));
                }
            }
            self.last = Some(view.value);
            Ok(())
        }
    }

    fn run_toy(id: u64) -> ScenarioOutcome {
        // Deterministic toy scenario: steps are a function of the id only.
        let mut reg = InvariantRegistry::new();
        reg.register(NoOdd).register(Monotone::default());
        let mut violations = Vec::new();
        let steps: Vec<u64> = (0..5).map(|i| (id + i) * 2 % 7).collect();
        for (i, &value) in steps.iter().enumerate() {
            let view = View {
                value,
                finished: false,
            };
            reg.check_step(id, i as u64 + 1, value * 1000, &view, &mut violations);
        }
        reg.check_finish(
            id,
            steps.len() as u64,
            9999,
            &View {
                value: 0,
                finished: true,
            },
            &mut violations,
        );
        ScenarioOutcome {
            scenario: id,
            events: steps.len() as u64,
            violations,
            coverage: vec![format!("parity:{}", id % 2)],
        }
    }

    #[test]
    fn registry_reports_violations_with_context() {
        let mut reg = InvariantRegistry::new();
        reg.register(NoOdd);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.names(), vec!["no-odd"]);
        let mut out = Vec::new();
        reg.check_step(
            7,
            3,
            1500,
            &View {
                value: 9,
                finished: false,
            },
            &mut out,
        );
        assert_eq!(out.len(), 1);
        let v = &out[0];
        assert_eq!(
            (v.scenario, v.invariant, v.event_index, v.at_ms),
            (7, "no-odd", 3, 1500)
        );
        assert!(v.detail.contains('9'));
        assert!(v.to_string().contains("no-odd"));
    }

    #[test]
    fn stateful_invariants_track_across_steps() {
        let mut reg = InvariantRegistry::new();
        reg.register(Monotone::default());
        let mut out = Vec::new();
        for (i, value) in [1u64, 3, 2].into_iter().enumerate() {
            reg.check_step(
                0,
                i as u64 + 1,
                0,
                &View {
                    value,
                    finished: false,
                },
                &mut out,
            );
        }
        assert_eq!(out.len(), 1, "only the 3 -> 2 regression violates");
        assert_eq!(out[0].event_index, 3);
    }

    #[test]
    fn finish_checks_report_separately() {
        let mut reg = InvariantRegistry::new();
        reg.register(NoOdd);
        let mut out = Vec::new();
        reg.check_finish(
            1,
            10,
            5000,
            &View {
                value: 0,
                finished: false,
            },
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].detail.contains("did not finish"));
    }

    #[test]
    fn campaign_report_is_thread_invariant() {
        let base = run_campaign(24, 1, run_toy);
        assert_eq!(base.scenarios, 24);
        assert!(base.events > 0);
        for threads in [2usize, 3, 8] {
            let other = run_campaign(24, threads, run_toy);
            assert_eq!(base, other, "threads={threads}");
            assert_eq!(base.digest(), other.digest(), "threads={threads}");
        }
    }

    #[test]
    fn digest_is_content_sensitive() {
        let a = run_campaign(8, 1, run_toy);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.events += 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        if let Some(v) = c.violations.first_mut() {
            v.event_index += 1;
            assert_ne!(a.digest(), c.digest());
        }
        let mut d = a.clone();
        d.coverage.insert("extra:label".into(), 1);
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn coverage_counts_scenarios_per_label() {
        let report = run_campaign(10, 2, run_toy);
        assert_eq!(report.coverage["parity:0"], 5);
        assert_eq!(report.coverage["parity:1"], 5);
    }

    #[test]
    fn fnv_vector_matches_reference() {
        // FNV-1a reference vectors: empty input = offset basis; "a" = known.
        assert_eq!(Digest64::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest64::new();
        d.write_bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
