//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use cellrel::netstack::{
    run_probe, LinkCondition, ProbeVerdict, TcpAccounting, STALL_MIN_SENT, STALL_WINDOW,
};
use cellrel::sim::{percentile, Ecdf, SimRng, Summary, TimerWheel};
use cellrel::telephony::{RecoveryConfig, RecoveryEngine};
use cellrel::timp::TimpModel;
use cellrel::types::{Rat, RssDbm, SignalLevel, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(
        times in prop::collection::vec(0u64..1_000_000, 1..200)
    ) {
        let mut q = TimerWheel::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn event_queue_cancellation_preserves_the_rest(
        times in prop::collection::vec(0u64..100_000, 2..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 2..100)
    ) {
        let mut q = TimerWheel::new();
        let tokens: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule_at(SimTime::from_millis(t), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, tok) in tokens.iter().enumerate() {
            if cancel_mask.get(i).copied().unwrap_or(false) {
                prop_assert!(q.cancel(*tok));
            } else {
                expected.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, e)) = q.pop() {
            popped.push(e);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    #[test]
    fn signal_level_is_monotone_in_rss(
        a in -150.0f64..-40.0,
        b in -150.0f64..-40.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for rat in Rat::ALL {
            let l_lo = SignalLevel::from_rss(RssDbm(lo), rat);
            let l_hi = SignalLevel::from_rss(RssDbm(hi), rat);
            prop_assert!(l_lo <= l_hi);
        }
    }

    #[test]
    fn percentile_is_monotone_and_bounded(
        mut xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        xs.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = percentile(&xs, lo);
        let p_hi = percentile(&xs, hi);
        prop_assert!(p_lo <= p_hi + 1e-9);
        prop_assert!(p_lo >= xs[0] - 1e-9);
        prop_assert!(p_hi <= xs[xs.len() - 1] + 1e-9);
    }

    #[test]
    fn ecdf_is_a_distribution_function(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        probe in -2e3f64..2e3,
    ) {
        let e = Ecdf::new(xs.clone());
        let f = e.at(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(e.at(e.max()) == 1.0);
        prop_assert!(e.at(e.min() - 1.0) == 0.0);
    }

    #[test]
    fn summary_merge_is_order_independent(
        xs in prop::collection::vec(-1e3f64..1e3, 1..60),
        ys in prop::collection::vec(-1e3f64..1e3, 1..60),
    ) {
        let mut a = Summary::new();
        xs.iter().for_each(|&x| a.push(x));
        let mut b = Summary::new();
        ys.iter().for_each(|&y| b.push(y));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
    }

    #[test]
    fn tcp_stall_predicate_requires_silence(
        sent in 0usize..40,
        received in 0usize..5,
    ) {
        let mut tcp = TcpAccounting::new();
        let t = SimTime::from_secs(100);
        tcp.record_sent(t, sent);
        tcp.record_received(t, received);
        let stalled = tcp.stall_detected(t);
        prop_assert_eq!(stalled, sent > 10 && received == 0);
    }

    #[test]
    fn probe_verdict_matches_condition_class(seed in 0u64..1000) {
        let mut rng = SimRng::new(seed);
        for cond in LinkCondition::ALL {
            let o = run_probe(
                cond,
                SimDuration::from_secs(1),
                SimDuration::from_secs(5),
                &mut rng,
            );
            match cond {
                LinkCondition::Healthy => prop_assert_eq!(o.verdict, ProbeVerdict::Healthy),
                LinkCondition::NetworkBlackhole => {
                    prop_assert_eq!(o.verdict, ProbeVerdict::NetworkStall)
                }
                LinkCondition::DnsOutage => {
                    prop_assert_eq!(o.verdict, ProbeVerdict::DnsServiceDown)
                }
                _ => prop_assert_eq!(o.verdict, ProbeVerdict::SystemSide),
            }
            prop_assert!(o.elapsed <= SimDuration::from_secs(5));
        }
    }

    #[test]
    fn recovery_engine_executes_at_most_three_stages(
        success in prop::collection::vec(0.0f64..1.0, 3),
        seed in 0u64..500,
    ) {
        let mut cfg = RecoveryConfig::vanilla();
        cfg.op_success = [success[0], success[1], success[2]];
        let mut eng = RecoveryEngine::new(cfg);
        let mut rng = SimRng::new(seed);
        eng.begin(SimTime::ZERO);
        let mut stages = 0;
        loop {
            let (_, fixed, next) = eng.probation_expired(true, &mut rng);
            stages += 1;
            if fixed || next.is_none() {
                break;
            }
        }
        prop_assert!(stages <= 3);
        prop_assert_eq!(eng.actions_executed(), stages);
    }

    #[test]
    fn timp_expected_time_is_finite_and_positive(
        p0 in 1.0f64..120.0,
        p1 in 1.0f64..120.0,
        p2 in 1.0f64..120.0,
        seed in 0u64..50,
    ) {
        let mut rng = SimRng::new(seed);
        let samples: Vec<f64> = (0..500).map(|_| rng.lognormal(2.0, 1.0)).collect();
        let model = TimpModel::from_durations(&samples, [0.75, 0.9, 0.97], [12.0, 30.0, 60.0]);
        let t = model.expected_recovery_time([p0, p1, p2]);
        prop_assert!(t.is_finite());
        prop_assert!(t > 0.0);
        // Bounded by the horizon plus all op costs.
        prop_assert!(t <= model.t_max() + 102.0 + 1e-6);
    }

    #[test]
    fn stall_threshold_is_strictly_more_than_ten(
        base_ms in 0u64..10_000_000,
    ) {
        // "More than 10 outbound segments": exactly STALL_MIN_SENT is never
        // enough, one more always trips it (with zero inbound), regardless
        // of where in simulated time the burst lands.
        let t = SimTime::from_millis(base_ms);
        let mut tcp = TcpAccounting::new();
        tcp.record_sent(t, STALL_MIN_SENT);
        prop_assert!(!tcp.stall_detected(t));
        tcp.record_sent(t, 1);
        prop_assert!(tcp.stall_detected(t));
    }

    #[test]
    fn inbound_at_the_window_edge_still_masks_the_stall(
        base_s in 61u64..100_000,
        sent in 11usize..40,
    ) {
        // The window is [now - 60 s, now]: pruning discards strictly-older
        // timestamps, so an inbound segment exactly 60 s old still counts —
        // and 1 ms older does not.
        let now = SimTime::from_secs(base_s);
        let edge = SimTime::from_millis(now.as_millis() - STALL_WINDOW.as_millis());

        let mut tcp = TcpAccounting::new();
        tcp.record_received(edge, 1);
        tcp.record_sent(now, sent);
        prop_assert!(!tcp.stall_detected(now), "rx at the edge is in-window");

        let mut tcp = TcpAccounting::new();
        tcp.record_received(SimTime::from_millis(edge.as_millis() - 1), 1);
        tcp.record_sent(now, sent);
        prop_assert!(tcp.stall_detected(now), "rx 1 ms past the edge expired");
    }

    #[test]
    fn window_saturates_at_simulation_start(
        now_ms in 0u64..60_000,
        rx_ms in 0u64..60_000,
        sent in 11usize..40,
    ) {
        // Before one full window has elapsed the cutoff saturates to t = 0:
        // nothing is ever pruned, so any inbound segment masks the stall.
        let now = SimTime::from_millis(now_ms.max(rx_ms));
        let mut tcp = TcpAccounting::new();
        tcp.record_received(SimTime::from_millis(rx_ms.min(now_ms)), 1);
        tcp.record_sent(now, sent);
        prop_assert!(!tcp.stall_detected(now));
    }

    #[test]
    fn extreme_timestamps_never_wrap(
        back_ms in 0u64..120_000,
        sent in 11usize..40,
    ) {
        // Timestamps near the top of the u64 range: the cutoff arithmetic
        // must saturate rather than wrap, and the predicate must behave
        // exactly as it does mid-range.
        let now = SimTime::MAX;
        let t = SimTime::from_millis(u64::MAX - back_ms);
        let mut tcp = TcpAccounting::new();
        tcp.record_sent(t, sent);
        let in_window = back_ms <= STALL_WINDOW.as_millis();
        prop_assert_eq!(tcp.stall_detected(now), in_window);
        let (s, r) = tcp.counts_in_window(now);
        prop_assert_eq!(s, if in_window { sent } else { 0 });
        prop_assert_eq!(r, 0);
    }

    #[test]
    fn counts_in_window_agrees_with_the_predicate(
        events in prop::collection::vec(
            (0u64..200_000, any::<bool>(), 1usize..15),
            1..60,
        ),
        probe_ms in 0u64..260_000,
    ) {
        // The read-only view the campaign invariants audit through must
        // agree with the kernel's own mutating predicate at every instant.
        let mut sorted = events;
        sorted.sort_unstable_by_key(|&(t, _, _)| t);
        let last = sorted.last().map(|&(t, _, _)| t).unwrap_or(0);
        let now = SimTime::from_millis(last.max(probe_ms));
        let mut tcp = TcpAccounting::new();
        for &(t, inbound, n) in &sorted {
            if inbound {
                tcp.record_received(SimTime::from_millis(t), n);
            } else {
                tcp.record_sent(SimTime::from_millis(t), n);
            }
        }
        let (s, r) = tcp.counts_in_window(now);
        prop_assert_eq!(tcp.stall_detected(now), s > STALL_MIN_SENT && r == 0);
    }

    #[test]
    fn rat_set_roundtrip(bits in prop::collection::vec(any::<bool>(), 4)) {
        use cellrel::types::RatSet;
        let mut set = RatSet::EMPTY;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                set.insert(Rat::from_index(i).expect("index < 4"));
            }
        }
        let collected: RatSet = set.iter().collect();
        prop_assert_eq!(collected, set);
        prop_assert_eq!(set.len(), bits.iter().filter(|&&b| b).count());
    }
}
