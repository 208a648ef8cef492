//! Property-based tests for the simulation kernel's RNG, distributions,
//! statistics, scheduler backends and content digest.

use cellrel_sim::{fit_zipf, percentile, Digest64, Ecdf, SimRng, TimerWheel, WeightedIndex};
use cellrel_types::{SimDuration, SimTime};
use proptest::prelude::*;

/// One step of a scheduler workload, decoded from a raw `(kind, payload)`
/// tuple so any drawn sequence is a valid interleaving:
///
/// * kind 0–3 — schedule at `now + delay`, with the delay scaled to span
///   near-term deadlines, multiple wheel levels, and the overflow horizon;
/// * kind 4–5 — cancel the `payload % issued`-th token ever issued
///   (possibly already fired or cancelled: results must still agree);
/// * kind 6–7 — pop the next event (or observe the drained state);
/// * kind 8 — peek the next timestamp without popping;
/// * kind 9 — schedule at the next multiple of `64^L` ms, `L` = 1…6: a
///   deadline at a level boundary, which later steps often land on again
///   from a cursor in a lower level.
#[derive(Debug, Clone)]
enum SchedOp {
    Schedule(u64),
    ScheduleAtBoundary(u32),
    Cancel(usize),
    Pop,
    Peek,
}

fn decode_op(kind: u8, payload: u64) -> SchedOp {
    match kind % 10 {
        0 | 1 => SchedOp::Schedule(payload % 5_000),
        2 => SchedOp::Schedule(payload % 500_000_000),
        // Past the 2^36 ms wheel span, into the overflow list; bounded so
        // 200 successive far deadlines can never overflow the clock.
        3 => SchedOp::Schedule(payload % (1 << 40)),
        4 | 5 => SchedOp::Cancel(payload as usize),
        6 | 7 => SchedOp::Pop,
        8 => SchedOp::Peek,
        _ => SchedOp::ScheduleAtBoundary(1 + (payload % 6) as u32),
    }
}

/// Delay from `now` to the next multiple of `64^level` ms after it.
fn delay_to_boundary(now: SimTime, level: u32) -> SimDuration {
    let step = 1u64 << (6 * level);
    let now = now.as_millis();
    SimDuration::from_millis((now / step + 1) * step - now)
}

/// The reference the wheel is checked against: every live event in one
/// list, popped by least `(time, schedule order)`. A token is the event's
/// schedule order.
#[derive(Default)]
struct SortedList {
    now: SimTime,
    live: Vec<(SimTime, usize)>,
}

impl SortedList {
    fn schedule(&mut self, delay: SimDuration, seq: usize) {
        self.live.push((self.now + delay, seq));
    }

    fn cancel(&mut self, seq: usize) -> bool {
        let before = self.live.len();
        self.live.retain(|&(_, s)| s != seq);
        self.live.len() < before
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.live.iter().min().map(|&(at, _)| at)
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let (i, _) = self.live.iter().enumerate().min_by_key(|(_, e)| **e)?;
        let (at, seq) = self.live.swap_remove(i);
        self.now = at;
        Some((at, seq))
    }
}

proptest! {
    /// The wheel's contract: on an arbitrary interleaving of
    /// schedule/cancel/pop operations it observably behaves exactly like a
    /// sorted list — same pop order (times AND payloads, i.e. FIFO among
    /// simultaneous events), same peeks, same cancel results, same lengths.
    #[test]
    fn wheel_matches_a_sorted_list(
        raw_ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..200)
    ) {
        let ops: Vec<SchedOp> = raw_ops
            .iter()
            .map(|&(kind, payload)| decode_op(kind, payload))
            .collect();
        let mut list = SortedList::default();
        let mut w: TimerWheel<usize> = TimerWheel::new();
        let mut w_toks = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                SchedOp::Schedule(delay) => {
                    let d = SimDuration::from_millis(delay);
                    list.schedule(d, step);
                    w_toks.push((w.schedule_after(d, step), step));
                }
                SchedOp::ScheduleAtBoundary(level) => {
                    let d = delay_to_boundary(list.now, level);
                    list.schedule(d, step);
                    w_toks.push((w.schedule_after(d, step), step));
                }
                SchedOp::Cancel(i) => {
                    if !w_toks.is_empty() {
                        let (tok, seq) = w_toks[i % w_toks.len()];
                        prop_assert_eq!(list.cancel(seq), w.cancel(tok));
                    }
                }
                SchedOp::Pop => {
                    prop_assert_eq!(list.pop(), w.pop());
                }
                SchedOp::Peek => {
                    prop_assert_eq!(list.peek_time(), w.peek_time());
                }
            }
            prop_assert_eq!(list.live.len(), w.len());
            prop_assert_eq!(list.now, w.now());
        }
        // Drain both completely; the full tails must agree.
        loop {
            let (a, b) = (list.pop(), w.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// A wheel and its reference fed the same schedules, plus, per event,
/// whether popping it schedules follow-ups.
#[derive(Default)]
struct Sweep {
    list: SortedList,
    w: TimerWheel<usize>,
    spawns: Vec<bool>,
}

impl Sweep {
    fn schedule(&mut self, at: u64, spawns: bool) {
        let d = SimTime::from_millis(at) - self.list.now;
        self.list.schedule(d, self.spawns.len());
        self.w.schedule_after(d, self.spawns.len());
        self.spawns.push(spawns);
    }
}

/// Deadlines on and 1 ms beside the first three multiples of every level
/// boundary `64^L` (L = 1…6; `64^6` is the 2^36 ms far span), from a
/// clock at 0 and at each of those deadlines in turn. After each newly
/// peeked time the sweep schedules at `now`; after popping a grid event it
/// schedules at `now` and at the next grid deadline ahead, one another
/// event already waits on, filed from a cursor in a lower level. Wheel and
/// list must agree on every step.
#[test]
fn wheel_matches_a_sorted_list_beside_every_level_boundary() {
    let mut grid: Vec<u64> = (1..=6u32)
        .flat_map(|level| (1..=3u64).map(move |k| k << (6 * level)))
        .flat_map(|at| [at - 1, at, at + 1])
        .collect();
    grid.sort_unstable();
    for start in std::iter::once(0).chain(grid.iter().copied()) {
        let mut s = Sweep::default();
        if start > 0 {
            s.schedule(start, false);
            assert_eq!(s.list.pop(), s.w.pop());
        }
        for &at in grid.iter().filter(|&&at| at >= start) {
            s.schedule(at, true);
        }
        let mut last_peek = None;
        loop {
            let peeked = s.list.peek_time();
            assert_eq!(peeked, s.w.peek_time(), "start {start}");
            if peeked.is_none() {
                break;
            }
            if peeked != last_peek {
                last_peek = peeked;
                s.schedule(s.list.now.as_millis(), false);
            }
            let popped = s.list.pop();
            assert_eq!(popped, s.w.pop(), "start {start}");
            let (at, seq) = popped.expect("peeked");
            if s.spawns[seq] {
                let now = at.as_millis();
                s.schedule(now, false);
                if let Some(&next) = grid.iter().find(|&&at| at > now) {
                    s.schedule(next, false);
                }
            }
            assert_eq!(s.list.live.len(), s.w.len());
        }
    }
}

proptest! {
    #[test]
    fn uniform_draws_stay_in_range(seed in 0u64..10_000, lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let v = rng.range_u64(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&v));
            let f = rng.f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn forked_streams_are_reproducible(seed in 0u64..10_000, salt in 0u64..10_000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        let mut fa = a.fork(salt);
        let mut fb = b.fork(salt);
        for _ in 0..16 {
            prop_assert_eq!(fa.f64().to_bits(), fb.f64().to_bits());
        }
    }

    #[test]
    fn forked_children_are_independent_of_parent_draw_count(
        seed in 0u64..10_000,
        salt in 0u64..10_000,
        draws in 0usize..64,
    ) {
        // The fork-independence claim: a child's stream is a function of the
        // parent's seed, the salt, and how many forks preceded it — NOT of
        // how many values the parent has drawn.
        let mut undrawn = SimRng::new(seed);
        let mut drawn = SimRng::new(seed);
        for _ in 0..draws {
            drawn.f64();
        }
        let mut fa = undrawn.fork(salt);
        let mut fb = drawn.fork(salt);
        for _ in 0..16 {
            prop_assert_eq!(fa.f64().to_bits(), fb.f64().to_bits());
        }
    }

    #[test]
    fn distinct_salts_give_distinct_streams(
        seed in 0u64..10_000,
        salt_a in 0u64..10_000,
        offset in 1u64..10_000,
    ) {
        let salt_b = salt_a + offset;
        let mut a = SimRng::new(seed).fork(salt_a);
        let mut b = SimRng::new(seed).fork(salt_b);
        // 16 consecutive identical u64 draws from different salts would be a
        // catastrophic collision; accept any single difference.
        let differs = (0..16).any(|_| a.f64().to_bits() != b.f64().to_bits());
        prop_assert!(differs, "salts {salt_a} and {salt_b} collided");
    }

    #[test]
    fn substreams_depend_only_on_root_and_id(
        root in 0u64..10_000,
        id in 0u64..100_000,
        draws in 0usize..32,
    ) {
        // for_substream is a pure function: no hidden state, so the stream
        // is identical no matter where or when it is derived.
        let mut a = SimRng::for_substream(root, id);
        // Interleave unrelated work before deriving the second copy.
        let mut noise = SimRng::new(root ^ id);
        for _ in 0..draws {
            noise.f64();
        }
        let mut b = SimRng::for_substream(root, id);
        for _ in 0..16 {
            prop_assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
        // And neighbouring device ids never share a stream.
        let mut c = SimRng::for_substream(root, id + 1);
        let mut a2 = SimRng::for_substream(root, id);
        let differs = (0..16).any(|_| a2.f64().to_bits() != c.f64().to_bits());
        prop_assert!(differs, "substreams {id} and {} collided", id + 1);
    }

    #[test]
    fn exp_and_pareto_are_nonnegative(seed in 0u64..5000, mean in 0.1f64..1000.0) {
        let mut rng = SimRng::new(seed);
        for _ in 0..20 {
            prop_assert!(rng.exp(mean) >= 0.0);
            prop_assert!(rng.pareto(mean, 1.1) >= mean);
            prop_assert!(rng.lognormal(0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn weighted_index_never_picks_zero_weight(
        seed in 0u64..5000,
        idx in 0usize..5,
    ) {
        let mut weights = vec![1.0f64; 5];
        weights[idx] = 0.0;
        let w = WeightedIndex::new(&weights);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert_ne!(w.sample(&mut rng), idx);
        }
    }

    #[test]
    fn weighted_index_probabilities_sum_to_one(
        weights in prop::collection::vec(0.01f64..100.0, 1..20)
    ) {
        let w = WeightedIndex::new(&weights);
        let total: f64 = (0..w.len()).map(|i| w.probability(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_in_range(seed in 0u64..5000, n in 1usize..500) {
        let z = WeightedIndex::zipf(n, 0.82);
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn ecdf_and_percentile_agree_on_extremes(
        mut xs in prop::collection::vec(-1e4f64..1e4, 2..100)
    ) {
        let e = Ecdf::new(xs.clone());
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        prop_assert_eq!(percentile(&xs, 0.0), e.min());
        prop_assert_eq!(percentile(&xs, 1.0), e.max());
        prop_assert!(e.median() >= e.min() && e.median() <= e.max());
    }

    #[test]
    fn zipf_fit_recovers_synthetic_exponents(a in 0.3f64..1.5, b in 8.0f64..15.0) {
        // Integer rounding of tiny counts distorts log-log fits, so only
        // fit the portion of the ranking with substantial counts — exactly
        // what the Fig. 11 analysis does with its head-of-ranking fit.
        let counts: Vec<u64> = (1..=500u64)
            .map(|rank| (b - a * (rank as f64).ln()).exp().round() as u64)
            .take_while(|&c| c >= 20)
            .collect();
        prop_assume!(counts.len() >= 10);
        let (fit_a, fit_b, r2) = fit_zipf(&counts);
        prop_assert!((fit_a - a).abs() < 0.1, "a {a} fit {fit_a}");
        prop_assert!((fit_b - b).abs() < 0.3, "b {b} fit {fit_b}");
        prop_assert!(r2 > 0.95);
    }

    #[test]
    fn poisson_is_nonnegative_and_bounded_in_probability(
        seed in 0u64..2000,
        mean in 0.0f64..200.0,
    ) {
        let mut rng = SimRng::new(seed);
        let v = rng.poisson(mean);
        // 20 standard deviations above the mean is astronomically unlikely.
        prop_assert!((v as f64) < mean + 20.0 * mean.sqrt() + 20.0);
    }
}

proptest! {
    /// `write_u64` skips the multiplies of a word's zero high bytes: it
    /// must still be FNV-1a over all eight little-endian bytes, the byte
    /// loop of `write_bytes`, from any state. `v` is log-uniform (every
    /// significant-byte count is drawn alike), beside the byte-boundary
    /// extremes on every case.
    #[test]
    fn digest_write_u64_equals_its_bytes(
        raw in any::<u64>(),
        bits in 0u32..65,
        prefix in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        let drawn = raw.checked_shr(64 - bits).unwrap_or(0);
        for v in [drawn, 0, 0x7f, 0x80, 0xff, 1 << 56, u64::MAX] {
            let mut fast = Digest64::new();
            fast.write_bytes(&prefix);
            let mut oracle = fast;
            fast.write_u64(v);
            oracle.write_bytes(&v.to_le_bytes());
            prop_assert_eq!(fast.finish(), oracle.finish(), "v = {:#x}", v);
        }
    }
}
