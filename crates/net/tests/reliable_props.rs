//! Property tests for the control-plane reliability layer: sequence
//! wraparound, duplicate/reordered/forged ACKs, replay-flood
//! resistance of the receive-side dedup window, and the jittered
//! exponential-backoff schedule (monotone bases, bounded jitter,
//! byte-deterministic per `(seed, peer, seq)`), and the flow budget's
//! AIMD window and FIFO of session opens.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use thinair_net::frame::NetPayload;
use thinair_net::reliable::{
    backoff_delay, Dedup, FlowBudget, Reliable, ReplayWindow, DEDUP_WINDOW, FLOW_INITIAL_CWND,
    FLOW_MAX_CWND, FLOW_MIN_CWND,
};
use thinair_net::transport::{SharedTransport, SimNet};
use thinair_netsim::IidMedium;

/// A lossless two-node sim with `t0` the sender, `t1` the receiver.
fn pair() -> (
    SharedTransport<impl thinair_net::transport::Transport>,
    SharedTransport<impl thinair_net::transport::Transport>,
) {
    let net = SimNet::new(IidMedium::symmetric(3, 0.0, 1), 2);
    (SharedTransport::new(net.transport(0)), SharedTransport::new(net.transport(1)))
}

proptest! {
    /// Fresh in-window sequences are admitted exactly once, regardless
    /// of where the stream sits relative to u32 wraparound.
    #[test]
    fn window_admits_each_fresh_seq_once(start in any::<u32>(), count in 1usize..400) {
        let mut w = ReplayWindow::new();
        for i in 0..count as u32 {
            let seq = start.wrapping_add(i);
            prop_assert!(w.admit(seq), "seq {seq} should be fresh");
            prop_assert!(!w.admit(seq), "seq {seq} replayed immediately");
        }
        // Replaying the most recent window's worth is always rejected.
        let newest = start.wrapping_add(count as u32 - 1);
        let lookback = (count as u32).min(DEDUP_WINDOW);
        for back in 0..lookback {
            prop_assert!(!w.admit(newest.wrapping_sub(back)));
        }
    }

    /// Reordered arrivals inside the window are each fresh exactly once.
    #[test]
    fn window_tolerates_reordering(start in any::<u32>(), swap_at in 1u32..200) {
        let mut w = ReplayWindow::new();
        // Deliver [0, swap_at) in order, then swap_at+1 before swap_at.
        for i in 0..swap_at {
            prop_assert!(w.admit(start.wrapping_add(i)));
        }
        let late = start.wrapping_add(swap_at);
        let early = start.wrapping_add(swap_at + 1);
        prop_assert!(w.admit(early), "newer frame first");
        prop_assert!(w.admit(late), "older in-window frame is still fresh");
        prop_assert!(!w.admit(late), "but only once");
        prop_assert!(!w.admit(early));
    }

    /// Under a replay flood, sequences older than the window are
    /// treated as duplicates — the flood can neither re-admit ancient
    /// frames nor grow state.
    #[test]
    fn window_evicts_under_replay_floods(start in any::<u32>(), flood in 1u32..5000) {
        let mut w = ReplayWindow::new();
        prop_assert!(w.admit(start));
        // Advance the horizon far past the window.
        let jump = start.wrapping_add(DEDUP_WINDOW + flood);
        prop_assert!(w.admit(jump));
        // The original and everything that fell off the window is dead.
        prop_assert!(!w.admit(start), "ancient seq re-admitted");
        prop_assert!(!w.admit(jump.wrapping_sub(DEDUP_WINDOW)), "edge-of-window seq re-admitted");
        // In-window history is still tracked exactly.
        prop_assert!(w.admit(jump.wrapping_sub(1)));
        prop_assert!(!w.admit(jump.wrapping_sub(1)));
    }

    /// The sender side retires an entry only when every targeted peer
    /// acknowledged; ACKs from non-targeted peers and for unknown seqs
    /// are no-ops, and duplicate ACKs are harmless — across wraparound.
    #[test]
    fn reliable_acks_by_the_right_peers_only(first_seq in any::<u32>(), dup in 0usize..4) {
        let (t0, _t1) = pair();
        let mut rel = Reliable::with_first_seq(Duration::from_millis(5), 8, first_seq.max(1));
        let seq = rel.send(&t0, 1, NetPayload::Done, &[1, 2]).unwrap();
        prop_assert!(!rel.acked(seq));
        // A forged ACK from a peer that was never targeted: no-op.
        rel.on_ack(3, seq);
        // An ACK for a sequence that was never sent: no-op.
        rel.on_ack(1, seq.wrapping_add(7));
        prop_assert!(!rel.acked(seq));
        // Peer 1 acks (possibly repeatedly).
        for _ in 0..=dup {
            rel.on_ack(1, seq);
        }
        prop_assert!(!rel.acked(seq), "peer 2 is still pending");
        rel.on_ack(2, seq);
        prop_assert!(rel.acked(seq));
        prop_assert!(rel.idle());
    }

    /// Sequence allocation never hands out 0 (reserved for ACK frames),
    /// even across the wraparound point.
    #[test]
    fn next_seq_skips_zero_on_wrap(offset in 0u32..4) {
        let (t0, _t1) = pair();
        let mut rel =
            Reliable::with_first_seq(Duration::from_millis(5), 8, u32::MAX - offset);
        for _ in 0..8 {
            let seq = rel.send(&t0, 1, NetPayload::Fin, &[1]).unwrap();
            prop_assert!(seq != 0, "seq 0 must stay reserved for acks");
            rel.on_ack(1, seq);
        }
    }

    /// The backoff schedule's base doubles per attempt until it pins at
    /// the cap, every drawn delay stays inside the documented ±25 %
    /// jitter band around its base, and consecutive delays are strictly
    /// monotone while the base is still doubling (a 2× step outgrows a
    /// ±25 % band).
    #[test]
    fn backoff_bases_are_monotone_and_jitter_stays_in_band(
        rto_ms in 1u64..200,
        cap_ms in 200u64..5_000,
        seed in any::<u64>(),
        peer in any::<u8>(),
        seq in any::<u32>(),
    ) {
        let rto = Duration::from_millis(rto_ms);
        let cap = Duration::from_millis(cap_ms);
        let (rto_us, cap_us) = (rto_ms * 1_000, cap_ms * 1_000);
        let mut prev_base = 0u64;
        let mut prev_delay = 0u64;
        for attempt in 1..=24u32 {
            let base = rto_us.checked_shl((attempt - 1).min(20)).unwrap_or(u64::MAX).min(cap_us);
            let us = backoff_delay(rto, attempt, cap, seed, peer, seq).as_micros() as u64;
            prop_assert!(
                us >= (base - base / 4).max(1) && us <= base + base / 4,
                "attempt {attempt}: delay {us} µs outside ±25% of base {base} µs"
            );
            prop_assert!(base >= prev_base, "base must never shrink");
            if prev_base > 0 && base == prev_base * 2 {
                prop_assert!(us > prev_delay, "delays must grow while the base doubles");
            }
            prev_base = base;
            prev_delay = us;
        }
        prop_assert_eq!(prev_base, cap_us, "24 attempts must reach the cap");
    }

    /// The schedule is a pure function of `(rto, cap, seed, peer, seq,
    /// attempt)`: replaying a run with a pinned seed reproduces the
    /// exact same retransmission timeline, byte for byte.
    #[test]
    fn backoff_schedule_is_deterministic_per_key(
        rto_ms in 1u64..500,
        seed in any::<u64>(),
        peer in any::<u8>(),
        seq in any::<u32>(),
    ) {
        let rto = Duration::from_millis(rto_ms);
        let cap = Duration::from_secs(2);
        for attempt in 1..=12u32 {
            let a = backoff_delay(rto, attempt, cap, seed, peer, seq);
            let b = backoff_delay(rto, attempt, cap, seed, peer, seq);
            prop_assert_eq!(a, b, "attempt {}: schedule must be replayable", attempt);
        }
        // ...and the jitter key actually covers its inputs: perturbing
        // any one coordinate moves at least one of the first attempts.
        let base: Vec<Duration> =
            (1..=6).map(|a| backoff_delay(rto, a, cap, seed, peer, seq)).collect();
        for (s2, p2, q2) in [
            (seed ^ 1, peer, seq),
            (seed, peer.wrapping_add(1), seq),
            (seed, peer, seq.wrapping_add(1)),
        ] {
            let other: Vec<Duration> =
                (1..=6).map(|a| backoff_delay(rto, a, cap, s2, p2, q2)).collect();
            // Jitter must depend on every key coordinate.
            prop_assert_ne!(&base, &other);
        }
    }
}

/// One externally visible event against a [`FlowBudget`].
#[derive(Clone, Copy, Debug)]
enum FlowEvent {
    CleanAck,
    Loss,
    Charge,
    Release,
}

fn arb_flow_events() -> impl Strategy<Value = Vec<FlowEvent>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(FlowEvent::CleanAck),
            1 => Just(FlowEvent::Loss),
            2 => Just(FlowEvent::Charge),
            2 => Just(FlowEvent::Release),
        ],
        0..400,
    )
}

/// Applies event `i` of a sequence; losses are timestamped `i`
/// milliseconds past `base` so replays see identical clocks.
fn flow_step(b: &mut FlowBudget, e: FlowEvent, base: Instant, i: usize, holdoff: Duration) {
    match e {
        FlowEvent::CleanAck => b.on_clean_ack(),
        FlowEvent::Loss => b.on_loss(base + Duration::from_millis(i as u64), holdoff),
        FlowEvent::Charge => b.force_charge(),
        FlowEvent::Release => b.release(),
    }
}

proptest! {
    /// AIMD bounds: no event sequence can push the window below the
    /// floor or above the ceiling — the multiplicative cut saturates at
    /// [`FLOW_MIN_CWND`] and additive increase at [`FLOW_MAX_CWND`].
    #[test]
    fn flow_window_stays_within_floor_and_ceiling(events in arb_flow_events()) {
        let base = Instant::now();
        let mut b = FlowBudget::new();
        prop_assert!(FLOW_INITIAL_CWND >= FLOW_MIN_CWND && FLOW_INITIAL_CWND <= FLOW_MAX_CWND);
        for (i, e) in events.iter().enumerate() {
            flow_step(&mut b, *e, base, i, Duration::ZERO);
            prop_assert!(
                b.cwnd() >= FLOW_MIN_CWND && b.cwnd() <= FLOW_MAX_CWND,
                "event {i} ({e:?}) left cwnd {} outside [{FLOW_MIN_CWND}, {FLOW_MAX_CWND}]",
                b.cwnd()
            );
            prop_assert!(b.window() >= FLOW_MIN_CWND as u64);
            prop_assert!(b.window() <= FLOW_MAX_CWND as u64);
        }
    }

    /// A congestion-signalling loss halves the window (down to the
    /// floor), and the additive recovery that follows is strictly
    /// monotone below the ceiling — it climbs, never jumps or dips.
    #[test]
    fn flow_loss_halves_then_acks_recover_monotonically(
        warm_acks in 0usize..2_000,
        acks_after in 1usize..3_000,
    ) {
        let mut b = FlowBudget::new();
        for _ in 0..warm_acks {
            b.on_clean_ack();
        }
        // Saturate the pipe so the timeout reads as congestion, not
        // idle-path link loss.
        while b.in_flight() < b.window() {
            b.force_charge();
        }
        let before = b.cwnd();
        b.on_loss(Instant::now(), Duration::ZERO);
        let expected = (before * 0.5).max(FLOW_MIN_CWND);
        prop_assert!(
            (b.cwnd() - expected).abs() < 1e-9,
            "cut from {before} gave {}, expected {expected}",
            b.cwnd()
        );
        let mut prev = b.cwnd();
        for _ in 0..acks_after {
            b.on_clean_ack();
            if prev < FLOW_MAX_CWND {
                prop_assert!(b.cwnd() > prev, "recovery must strictly climb below the ceiling");
            } else {
                prop_assert!(b.cwnd() == prev, "at the ceiling the window must hold");
            }
            prop_assert!(b.cwnd() <= FLOW_MAX_CWND);
            prev = b.cwnd();
        }
    }

    /// The budget is a pure function of its event sequence: two fresh
    /// budgets fed the same events (with the same loss timestamps)
    /// agree bit-for-bit after every step.
    #[test]
    fn flow_budget_is_deterministic_for_a_fixed_event_sequence(events in arb_flow_events()) {
        let base = Instant::now();
        let holdoff = Duration::from_millis(3);
        let mut a = FlowBudget::new();
        let mut b = FlowBudget::new();
        for (i, e) in events.iter().enumerate() {
            flow_step(&mut a, *e, base, i, holdoff);
            flow_step(&mut b, *e, base, i, holdoff);
            prop_assert_eq!(a.cwnd().to_bits(), b.cwnd().to_bits(), "cwnd diverged at event {}", i);
            prop_assert_eq!(a.in_flight(), b.in_flight(), "in_flight diverged at event {}", i);
            prop_assert_eq!(a.window(), b.window());
        }
    }
}

/// One event a coordinator node's budget sees while session opens queue.
#[derive(Clone, Copy, Debug)]
enum OpenEvent {
    Open,
    Release,
    CleanAck,
    Loss,
}

fn arb_open_events() -> impl Strategy<Value = Vec<OpenEvent>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(OpenEvent::Open),
            2 => Just(OpenEvent::Release),
            2 => Just(OpenEvent::CleanAck),
            1 => Just(OpenEvent::Loss),
        ],
        0..600,
    )
}

proptest! {
    /// Session opens start in arrival order, never while `in_flight ≥
    /// window`, and a fresh open never overtakes a queued one — with the
    /// budget driven as a node drives it: a fresh open asks
    /// [`FlowBudget::open`], and after every event the receive loop
    /// hands the [`FlowBudget::turn`] to the FIFO's head, whose `Start`
    /// then charges the window, until the window is full or nothing
    /// waits. `busy` mid-session frames are in flight from the start.
    #[test]
    fn opens_start_in_arrival_order_and_only_with_room(
        busy in 0u64..300,
        events in arb_open_events(),
    ) {
        let base = Instant::now();
        let mut b = FlowBudget::new();
        for _ in 0..busy {
            b.force_charge();
        }
        // Opens are numbered in arrival order, from 1.
        let (mut opened, mut started) = (0u64, 0u64);
        for (i, e) in events.iter().enumerate() {
            match e {
                OpenEvent::Open => {
                    opened += 1;
                    let room = b.in_flight() < b.window();
                    if b.open(opened) {
                        prop_assert_eq!(started + 1, opened, "open {} overtook a queued one", opened);
                        prop_assert!(room, "open {} started on a full window", opened);
                        b.force_charge();
                        started += 1;
                    }
                }
                OpenEvent::Release => b.release(),
                OpenEvent::CleanAck => b.on_clean_ack(),
                OpenEvent::Loss => {
                    b.on_loss(base + Duration::from_millis(i as u64), Duration::from_millis(3))
                }
            }
            while let Some(head) = b.turn() {
                prop_assert_eq!(head, started + 1, "open {} started out of arrival order", head);
                prop_assert!(b.in_flight() < b.window(), "open {} started on a full window", head);
                prop_assert!(b.take_turn(head));
                b.force_charge();
                started += 1;
            }
            prop_assert!(started == opened || b.in_flight() >= b.window(), "an open waits idly");
        }
    }
}

/// End-to-end: a reliable frame near the wraparound point is delivered,
/// deduplicated, and acked through the real transport path.
#[test]
fn dedup_and_ack_work_across_wraparound() {
    thinair_net::rt::block_on(async {
        let (t0, t1) = pair();
        let mut rel = Reliable::with_first_seq(Duration::from_millis(1), 10, u32::MAX);
        let mut dedup = Dedup::new(2);
        let mut seen = Vec::new();
        for _ in 0..4 {
            let seq = rel.send(&t0, 9, NetPayload::Done, &[1]).unwrap();
            seen.push(seq);
            let f = t1.recv_batch(1).await.unwrap().remove(0);
            assert!(dedup.admit(&t1, &f).unwrap(), "first copy of {seq} is fresh");
            // Simulate a retransmission of the same frame.
            t0.send_to(1, &f).unwrap();
            let dup = t1.recv_batch(1).await.unwrap().remove(0);
            assert!(!dedup.admit(&t1, &dup).unwrap(), "retransmission of {seq} deduped");
            // Route both acks back to the sender.
            for _ in 0..2 {
                let a = t0.recv_batch(1).await.unwrap().remove(0);
                if let NetPayload::Ack { seq: s } = a.payload {
                    rel.on_ack(a.sender, s);
                }
            }
            assert!(rel.acked(seq));
        }
        assert_eq!(seen, vec![u32::MAX, 1, 2, 3], "wraparound skips the reserved 0");
    });
}

/// The retransmit budget still reports unreachable peers when ACKs are
/// forged from the wrong peer id.
#[test]
fn wrong_peer_acks_do_not_satisfy_the_barrier() {
    let (t0, _t1) = pair();
    let mut rel = Reliable::new(Duration::from_micros(10), 3);
    let seq = rel.send(&t0, 1, NetPayload::Fin, &[1]).unwrap();
    // Peer 0 (ourselves) and an out-of-roster peer ack; peer 1 never does.
    rel.on_ack(0, seq);
    rel.on_ack(200, seq);
    let mut last = Ok(());
    for _ in 0..10 {
        std::thread::sleep(Duration::from_micros(50));
        last = rel.tick(&t0, Instant::now()).unwrap();
        if last.is_err() {
            break;
        }
    }
    let err = last.unwrap_err();
    assert_eq!(err.missing, vec![1]);
}
