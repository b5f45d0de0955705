//! [`CommView`] on both backends: what a context isolates, what a rank
//! map translates (and what it leaves alone), and that the three shapes
//! compose.

use std::time::Duration;

use bytes::Bytes;
use ccoll_comm::{
    Category, Comm, CommError, CommView, Ctx, DeadSet, FaultPlan, SimConfig, SimWorld, Tag,
    ThreadWorld,
};

/// Run the closure on `n` ranks of each backend; the per-rank results
/// must agree.
macro_rules! on_both {
    ($n:expr, $body:expr) => {{
        let sim = SimWorld::with_ranks($n).run($body).results;
        let threaded = ThreadWorld::new($n).run($body).results;
        assert_eq!(sim, threaded, "the backends disagree");
        sim
    }};
}

/// Two plan operations: slot 0's first start, slot 1's second.
const A: u32 = Ctx::op(0, 0);
const B: u32 = Ctx::op(1, 1);

fn text(s: &'static str) -> Bytes {
    Bytes::from_static(s.as_bytes())
}

fn timeout(src: usize, tag: Tag) -> CommError {
    let waited = Duration::ZERO;
    CommError::Timeout { src, tag, waited }
}

/// The message from `src` in context `ctx` on `tag`, received on the
/// bare communicator.
fn on_wire<C: Comm>(c: &mut C, src: usize, ctx: Ctx, tag: Tag) -> Bytes {
    let req = c.irecv_ctx(src, ctx, tag);
    c.wait_recv(req)
}

/// Wait out a receive nobody answers: the error `view` reports (less
/// the time it waited), with the request retired.
fn unanswered<C: Comm>(view: &mut C, src: usize, tag: Tag) -> CommError {
    let req = view.irecv(src, tag);
    let (req, err) = view
        .wait_recv_timeout_in(req, Some(Duration::from_millis(2)), Category::Wait)
        .expect_err("nobody sends this");
    view.cancel_recv(req);
    match err {
        CommError::Timeout { src, tag, .. } => timeout(src, tag),
        dead => dead,
    }
}

#[test]
fn stamps_never_cross_match_and_commute_with_a_group() {
    const MEMBERS: [usize; 2] = [1, 3];
    let got = on_both!(4, |c| match c.rank() {
        1 => {
            // Same (src, dst, tag) in two operations, A first.
            CommView::stamped(c, A).isend(3, 5, text("a"));
            CommView::stamped(c, B).isend(3, 5, text("b"));
            let mut g = CommView::group(c, &MEMBERS);
            CommView::stamped(&mut g, A).isend(1, 6, text("stamped(group)"));
            let mut s = CommView::stamped(c, A);
            CommView::group(&mut s, &MEMBERS).isend(1, 7, text("group(stamped)"));
            Vec::new()
        }
        3 => {
            // B first: had the two matched on (src, tag) alone, FIFO
            // order would hand over "a" here.
            let b = CommView::stamped(c, B).recv(1, 5);
            let a = CommView::stamped(c, A).recv(1, 5);
            // On the wire: the mapped rank, A's context and the bare
            // tag, whichever way round the views nest.
            let ctx = Ctx { op: A, epoch: 0 };
            vec![b, a, on_wire(c, 1, ctx, 6), on_wire(c, 1, ctx, 7)]
        }
        _ => Vec::new(),
    });
    let want = ["b", "a", "stamped(group)", "group(stamped)"].map(text);
    assert_eq!(got[3], want);
}

#[test]
fn group_maps_ranks_both_ways_and_its_barrier_releases_only_members() {
    const MEMBERS: [usize; 3] = [1, 3, 4];
    // Ranks 0 and 2 never check in: the inner barrier would wait on
    // them forever.
    let got = on_both!(5, |c| {
        let me = c.rank();
        if !MEMBERS.contains(&me) {
            return None;
        }
        let mut g = CommView::group(c, &MEMBERS);
        let (n, r) = (g.size(), g.rank());
        // A ring in group ranks carries inner ranks around.
        g.isend((r + 1) % n, 9, Bytes::from(vec![me as u8]));
        g.barrier();
        // What was sent before the barrier has arrived after it.
        let req = g.irecv((r + n - 1) % n, 9);
        let left = g.try_recv(req, Category::Wait).expect("arrived")[0];
        let alive = (0..n).all(|p| g.peer_alive(p));
        // Group rank 0 waits on group rank 2 (inner 4) in vain.
        let err = (r == 0).then(|| unanswered(&mut g, 2, 0x77));
        g.barrier();
        Some((r, n, left as usize, alive, err))
    });
    for (i, &inner) in MEMBERS.iter().enumerate() {
        // The error names the group rank and leaves the tag alone.
        let err = (i == 0).then_some(timeout(2, 0x77));
        let want = (i, 3, MEMBERS[(i + 2) % 3], true, err);
        assert_eq!(got[inner], Some(want));
    }
    assert_eq!((got[0], got[2]), (None, None));
}

#[test]
fn group_reports_a_dead_peer_in_group_ranks() {
    /// What group rank 0 of `[1, 3]` sees once inner rank 3 has died.
    fn sees_peer_die<C: Comm>(c: &mut C) -> (CommError, bool, bool) {
        let mut g = CommView::group(c, &[1, 3]);
        let req = g.irecv(1, 4);
        let (req, err) = g
            .wait_recv_timeout_in(req, Some(Duration::from_secs(5)), Category::Wait)
            .expect_err("the peer dies instead of sending");
        g.cancel_recv(req);
        (err, g.peer_alive(0), g.peer_alive(1))
    }
    let want = (CommError::PeerDead { peer: 1 }, true, false);
    let config = SimConfig::new(4).with_faults(FaultPlan::seeded(1).with_kill(3, 0));
    let sim = SimWorld::new(config)
        .try_run(|c| match c.rank() {
            1 => Some(sees_peer_die(c)),
            3 => {
                // Its first operation is the killed rank's last.
                c.charge_duration(Duration::from_micros(1), Category::Others);
                unreachable!("killed by the fault plan");
            }
            _ => None,
        })
        .expect("no deadlock");
    assert_eq!(sim.results[1].as_completed(), Some(&Some(want)));
    let threaded = ThreadWorld::new(4).run(|c| match c.rank() {
        1 => Some(sees_peer_die(c)),
        3 => {
            c.mark_self_dead();
            None
        }
        _ => None,
    });
    assert_eq!(threaded.results[1], Some(want));
}

#[test]
fn shrunk_reranks_strips_the_epoch_and_purges_only_the_dead_epoch() {
    let got = on_both!(4, |c| {
        let me = c.rank();
        if me == 0 {
            // Left over from before the shrink, then what a faster
            // survivor already sent into epoch 1, then a marker.
            c.isend(2, 7, text("stale"));
            c.isend_ctx(2, Ctx { op: 0, epoch: 1 }, 7, text("fresh"));
            c.send(2, 1, text("sent"));
        }
        if me == 2 {
            c.recv(0, 1);
        }
        let mut s = match CommView::shrunk(c, DeadSet::from_ranks([1]), 1) {
            Ok(s) => s,
            Err(excluded) => return (excluded, 0, Bytes::new()),
        };
        assert_eq!((s.size(), s.epoch()), (3, 1));
        let fresh = if me == 2 { s.recv(0, 7) } else { Bytes::new() };
        let next = (s.rank() + 1) % 3;
        (unanswered(&mut s, next, 0x55), s.stale_discarded(), fresh)
    });
    assert_eq!(got[1].0, CommError::PeerDead { peer: 1 });
    for (shrunk, inner) in [0, 2, 3].into_iter().enumerate() {
        // Named by shrunk rank and the bare schedule tag.
        assert_eq!(got[inner].0, timeout((shrunk + 1) % 3, 0x55));
    }
    assert_eq!((got[2].1, &got[2].2), (1, &text("fresh")));
    assert_eq!((got[0].1, got[3].1), (0, 0));
}

#[test]
fn shrinks_nest_and_their_stamps_compose() {
    let got = on_both!(4, |c| {
        // Nobody sends into epoch 2 before everyone has crossed into it
        // (in the recovery layer the agreement vote is that barrier).
        if c.rank() == 1 {
            c.barrier();
            return None;
        }
        let alone = DeadSet::from_ranks([1]);
        let mut first = CommView::shrunk(c, alone, 1).expect("survivor");
        // Shrunk rank 1 (inner 2) goes next: inner ranks 0 and 3 remain.
        if first.rank() == 1 {
            first.inner_mut().barrier();
            return None;
        }
        let mut second = CommView::shrunk(&mut first, alone, 2).expect("survivor");
        second.inner_mut().inner_mut().barrier();
        assert_eq!((second.size(), second.epoch()), (2, 2));
        if second.rank() == 0 {
            second.isend(1, 9, text("nested"));
            return Some(Bytes::new());
        }
        assert_eq!(unanswered(&mut second, 0, 0x33), timeout(0, 0x33));
        // The outer epoch replaced the inner one on the wire, and it
        // came from inner rank 0.
        Some(on_wire(c, 0, Ctx { op: 0, epoch: 2 }, 9))
    });
    assert_eq!(got, [Some(Bytes::new()), None, None, Some(text("nested"))]);
}

#[test]
fn three_nested_shrinks_keep_their_epochs_apart() {
    // Epochs 1, 2 and 3 on the same two ranks; level 2's message on tag
    // 5 arrives first, after every purge. The level-3 receive must skip
    // it — OR'd epoch stamps could not tell the two apart (1|2 == 1|2|3).
    let got = on_both!(2, |c| {
        let none = DeadSet::EMPTY;
        let mut first = CommView::shrunk(c, none, 1).expect("survivor");
        let mut second = CommView::shrunk(&mut first, none, 2).expect("survivor");
        let mut third = CommView::shrunk(&mut second, none, 3).expect("survivor");
        third.inner_mut().inner_mut().inner_mut().barrier();
        if third.rank() == 0 {
            third.inner_mut().isend(1, 5, text("level 2"));
            third.isend(1, 5, text("level 3"));
            return Vec::new();
        }
        let newest = third.recv(0, 5);
        vec![newest, third.inner_mut().recv(0, 5)]
    });
    assert_eq!(got[1], [text("level 3"), text("level 2")]);
}
