//! Real multi-threaded backend: one OS thread per rank, mailbox-based
//! message passing with MPI-style `(source, ctx, tag)` matching.
//!
//! Used for correctness testing (the collectives run with genuine
//! concurrency and real blocking) and small-scale wall-clock experiments.
//! Sends are eager and buffered (a send completes as soon as the payload
//! is deposited in the destination mailbox), which matches MPI's behaviour
//! for the compressed message sizes our collectives produce.
//!
//! Matching semantics: messages from the same `(source, ctx, tag)` are
//! received in FIFO order. Multiple *outstanding* receives posted by one
//! rank for the same `(source, ctx, tag)` complete in posting order.
//! These are the MPI ordering guarantees the collectives rely on.
//!
//! ## Fault path
//!
//! A world built with [`ThreadWorld::with_fault_policy`] arms the same
//! fallible surface the simulator exposes: blocking receives honor real
//! wall-clock deadlines ([`Comm::wait_recv_timeout_in`]), a rank can
//! declare itself crashed ([`ThreadComm::mark_self_dead`]) — waking every
//! blocked peer so receives from it fail fast with
//! [`CommError::PeerDead`] — and the barrier releases survivors once all
//! *live* ranks have arrived. This is what lets the recovery stack
//! (survivor agreement, communicator shrink) run under genuine
//! concurrency rather than only in virtual time.

use crate::hash::FixedMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::chaos::{CommError, FaultPolicy};
use crate::comm::{Comm, Ctx, RecvReq, SendReq, Tag};
use crate::cost::Kernel;
use crate::profile::{Category, Profiler, TimeBreakdown, TrafficStats};
use crate::time::SimTime;

/// What a receive matches: `(src, ctx, tag)`.
type Key = (usize, Ctx, Tag);

/// One rank's mailbox: per-[`Key`] FIFO queues.
#[derive(Default)]
struct Mailbox {
    queues: Mutex<FixedMap<Key, std::collections::VecDeque<Bytes>>>,
    signal: Condvar,
}

/// Barrier bookkeeping: ranks arrived this generation, the generation
/// counter waiters key on, and how many ranks have died (a dead rank
/// never arrives, so it counts toward release permanently).
struct BarrierInner {
    arrived: usize,
    generation: u64,
    dead: usize,
}

/// Barrier state shared by all ranks.
struct BarrierState {
    count: Mutex<BarrierInner>,
    signal: Condvar,
}

struct Shared {
    size: usize,
    mailboxes: Vec<Mailbox>,
    barrier: BarrierState,
    epoch: Instant,
    /// Crash flags, one per rank, set by [`ThreadComm::mark_self_dead`].
    killed: Vec<AtomicBool>,
    /// Per-hop timeout/retry budget reported by [`Comm::fault_policy`].
    policy: FaultPolicy,
}

/// A world of `size` ranks communicating over real threads.
///
/// ```
/// use ccoll_comm::{ThreadWorld, Comm};
/// use bytes::Bytes;
///
/// let world = ThreadWorld::new(2);
/// let out = world.run(|comm| {
///     if comm.rank() == 0 {
///         comm.send(1, 7, Bytes::from_static(b"hi"));
///         Vec::new()
///     } else {
///         comm.recv(0, 7).to_vec()
///     }
/// });
/// assert_eq!(out.results[1], b"hi");
/// ```
pub struct ThreadWorld {
    shared: Arc<Shared>,
}

/// Output of a world run: per-rank results and time breakdowns, plus the
/// wall-clock makespan.
#[derive(Debug)]
pub struct RunOutput<T> {
    /// Per-rank return values.
    pub results: Vec<T>,
    /// Per-rank time breakdowns.
    pub breakdowns: Vec<TimeBreakdown>,
    /// Per-rank message-volume counters.
    pub traffics: Vec<TrafficStats>,
    /// Time from run start until the last rank finished.
    pub elapsed: Duration,
}

impl ThreadWorld {
    /// Create a world with `size` ranks.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        Self::with_fault_policy(size, FaultPolicy::NONE)
    }

    /// Create a world with `size` ranks whose communicators report
    /// `policy` from [`Comm::fault_policy`], arming the collective
    /// layer's timeout/retry/abort machinery on real threads.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn with_fault_policy(size: usize, policy: FaultPolicy) -> Self {
        assert!(size > 0, "world needs at least one rank");
        let mailboxes = (0..size).map(|_| Mailbox::default()).collect();
        let killed = (0..size).map(|_| AtomicBool::new(false)).collect();
        ThreadWorld {
            shared: Arc::new(Shared {
                size,
                mailboxes,
                barrier: BarrierState {
                    count: Mutex::new(BarrierInner {
                        arrived: 0,
                        generation: 0,
                        dead: 0,
                    }),
                    signal: Condvar::new(),
                },
                epoch: Instant::now(),
                killed,
                policy,
            }),
        }
    }

    /// Run `f` on every rank concurrently and gather the outputs.
    ///
    /// # Panics
    /// Propagates a panic from any rank.
    pub fn run<T, F>(&self, f: F) -> RunOutput<T>
    where
        T: Send + 'static,
        F: Fn(&mut ThreadComm) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let start = Instant::now();
        let handles: Vec<_> = (0..self.shared.size)
            .map(|rank| {
                let shared = Arc::clone(&self.shared);
                let f = Arc::clone(&f);
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn(move || {
                        let mut comm = ThreadComm {
                            rank,
                            shared,
                            profiler: Profiler::enabled(),
                            next_req: 0,
                            pending_recvs: FixedMap::default(),
                        };
                        let out = f(&mut comm);
                        let traffic = comm.profiler.traffic();
                        (out, comm.profiler.breakdown().clone(), traffic)
                    })
                    .expect("spawn rank thread")
            })
            .collect();
        let mut results = Vec::with_capacity(self.shared.size);
        let mut breakdowns = Vec::with_capacity(self.shared.size);
        let mut traffics = Vec::with_capacity(self.shared.size);
        for h in handles {
            let (r, b, t) = h.join().expect("rank thread panicked");
            results.push(r);
            breakdowns.push(b);
            traffics.push(t);
        }
        RunOutput {
            results,
            breakdowns,
            traffics,
            elapsed: start.elapsed(),
        }
    }
}

/// Per-rank communicator for [`ThreadWorld`].
pub struct ThreadComm {
    rank: usize,
    shared: Arc<Shared>,
    profiler: Profiler,
    next_req: u64,
    /// Outstanding receives: request id → what it matches, and an
    /// optional already-claimed payload (claimed by a successful
    /// `test_recv`).
    pending_recvs: FixedMap<u64, PendingRecv>,
}

struct PendingRecv {
    key: Key,
    claimed: Option<Bytes>,
}

impl ThreadComm {
    fn try_pop(&self, key: Key) -> Option<Bytes> {
        let mut q = self.shared.mailboxes[self.rank].queues.lock();
        q.get_mut(&key).and_then(|v| v.pop_front())
    }

    fn blocking_pop(&self, key: Key) -> Bytes {
        let mb = &self.shared.mailboxes[self.rank];
        let (src, _, tag) = key;
        let mut q = mb.queues.lock();
        loop {
            if let Some(msg) = q.get_mut(&key).and_then(|v| v.pop_front()) {
                return msg;
            }
            // An infallible wait on a crashed peer can never complete;
            // failing loudly beats hanging the test harness. Fault-aware
            // callers go through `wait_recv_timeout_in` instead, which
            // reports the death as a structured error.
            assert!(
                !self.shared.killed[src].load(Ordering::SeqCst),
                "rank {} blocked forever: peer rank {src} is dead and no \
                 message (src {src}, tag {tag}) remains",
                self.rank
            );
            mb.signal.wait(&mut q);
        }
    }

    /// Blocking pop with an optional wall-clock deadline and dead-peer
    /// detection. Returns the structured reason when the wait cannot
    /// (or did not in time) complete.
    fn deadline_pop(&self, key: Key, timeout: Option<Duration>) -> Result<Bytes, CommError> {
        let mb = &self.shared.mailboxes[self.rank];
        let (src, _, tag) = key;
        let t0 = Instant::now();
        let mut q = mb.queues.lock();
        loop {
            if let Some(msg) = q.get_mut(&key).and_then(|v| v.pop_front()) {
                return Ok(msg);
            }
            // Check death *after* draining: a message delivered before
            // the crash is still deliverable.
            if self.shared.killed[src].load(Ordering::SeqCst) {
                return Err(CommError::PeerDead { peer: src });
            }
            match timeout {
                None => mb.signal.wait(&mut q),
                Some(t) => {
                    let waited = t0.elapsed();
                    if waited >= t {
                        return Err(CommError::Timeout { src, tag, waited });
                    }
                    let _ = mb.signal.wait_for(&mut q, t - waited);
                }
            }
        }
    }

    /// Declare this rank crashed. Every peer blocked on a receive from
    /// this rank wakes and observes [`CommError::PeerDead`] (on the
    /// fault-aware wait paths), and the barrier stops counting this rank
    /// toward release — including a generation already in progress.
    ///
    /// The rank's communicator stays usable only for draining state; a
    /// real crash is modeled by the rank thread returning right after
    /// this call.
    pub fn mark_self_dead(&mut self) {
        self.shared.killed[self.rank].store(true, Ordering::SeqCst);
        for mb in &self.shared.mailboxes {
            mb.signal.notify_all();
        }
        let b = &self.shared.barrier;
        let mut guard = b.count.lock();
        guard.dead += 1;
        if guard.arrived > 0 && guard.arrived + guard.dead >= self.shared.size {
            guard.arrived = 0;
            guard.generation += 1;
            b.signal.notify_all();
        }
    }

    /// Drop every posted receive and every undelivered inbound message
    /// whose context the predicate marks stale, returning how many of
    /// each were discarded (summed). Entries with other contexts survive
    /// — recovery control traffic must outlive a collective's abort, and
    /// new-epoch traffic must outlive an epoch crossing.
    fn purge<F: Fn(Ctx) -> bool>(&mut self, stale: F) -> u64 {
        let before = self.pending_recvs.len();
        self.pending_recvs.retain(|_, p| !stale(p.key.1));
        let mut discarded = (before - self.pending_recvs.len()) as u64;
        let mut q = self.shared.mailboxes[self.rank].queues.lock();
        q.retain(|&(_, ctx, _), v| {
            if stale(ctx) {
                discarded += v.len() as u64;
                false
            } else {
                true
            }
        });
        discarded
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn isend_ctx(&mut self, dst: usize, ctx: Ctx, tag: Tag, payload: Bytes) -> SendReq {
        assert!(dst < self.shared.size, "bad destination rank {dst}");
        self.profiler.record_send(payload.len());
        let mb = &self.shared.mailboxes[dst];
        {
            let mut q = mb.queues.lock();
            q.entry((self.rank, ctx, tag))
                .or_default()
                .push_back(payload);
        }
        mb.signal.notify_all();
        self.next_req += 1;
        SendReq { id: self.next_req }
    }

    fn irecv_ctx(&mut self, src: usize, ctx: Ctx, tag: Tag) -> RecvReq {
        assert!(src < self.shared.size, "bad source rank {src}");
        self.next_req += 1;
        let id = self.next_req;
        let key = (src, ctx, tag);
        self.pending_recvs
            .insert(id, PendingRecv { key, claimed: None });
        RecvReq { id }
    }

    fn wait_send_in(&mut self, _req: SendReq, _cat: Category) {
        // Eager buffered sends complete at isend time.
    }

    fn wait_recv_in(&mut self, req: RecvReq, cat: Category) -> Bytes {
        let pending = self
            .pending_recvs
            .remove(&req.id)
            .expect("wait on unknown or already-completed receive");
        if let Some(msg) = pending.claimed {
            return msg;
        }
        let t0 = Instant::now();
        let msg = self.blocking_pop(pending.key);
        self.profiler.add(cat, t0.elapsed());
        msg
    }

    fn test_recv(&mut self, req: &RecvReq) -> bool {
        let Some(pending) = self.pending_recvs.get(&req.id) else {
            return true; // already waited on
        };
        if pending.claimed.is_some() {
            return true;
        }
        if let Some(msg) = self.try_pop(pending.key) {
            self.pending_recvs
                .get_mut(&req.id)
                .expect("checked above")
                .claimed = Some(msg);
            true
        } else {
            false
        }
    }

    fn test_send(&mut self, _req: &SendReq) -> bool {
        true
    }

    /// Sends leave at `isend`, so the next event is a message for one of
    /// the posted receives no test has claimed yet: wait on the mailbox
    /// condvar until one is queued.
    fn idle(&mut self) -> bool {
        let mb = &self.shared.mailboxes[self.rank];
        let t0 = Instant::now();
        let timeout = self.shared.policy.hop_timeout;
        let mut q = mb.queues.lock();
        let woke = loop {
            let mut dead = false;
            let mut landed = false;
            for p in self.pending_recvs.values().filter(|p| p.claimed.is_none()) {
                if q.get(&p.key).is_some_and(|v| !v.is_empty()) {
                    landed = true;
                } else if self.shared.killed[p.key.0].load(Ordering::SeqCst) {
                    dead = true;
                }
            }
            if landed || dead {
                break landed;
            }
            match timeout {
                None => mb.signal.wait(&mut q),
                Some(t) => {
                    let waited = t0.elapsed();
                    if waited >= t {
                        break false;
                    }
                    let _ = mb.signal.wait_for(&mut q, t - waited);
                }
            }
        };
        drop(q);
        self.profiler.add(Category::Wait, t0.elapsed());
        woke
    }

    fn barrier(&mut self) {
        let b = &self.shared.barrier;
        let mut guard = b.count.lock();
        let gen = guard.generation;
        guard.arrived += 1;
        if guard.arrived + guard.dead >= self.shared.size {
            guard.arrived = 0;
            guard.generation += 1;
            b.signal.notify_all();
        } else {
            while guard.generation == gen {
                b.signal.wait(&mut guard);
            }
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.shared.epoch.elapsed().as_nanos() as u64)
    }

    fn charge_duration(&mut self, _d: Duration, _cat: Category) {
        // Real time passes by itself; modeled charges are simulator-only.
    }

    fn kernel_cost(&self, _kernel: Kernel, _bytes: usize) -> Duration {
        Duration::ZERO
    }

    fn profiler(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    fn wait_recv_timeout_in(
        &mut self,
        req: RecvReq,
        timeout: Option<Duration>,
        cat: Category,
    ) -> Result<Bytes, (RecvReq, CommError)> {
        let pending = self
            .pending_recvs
            .remove(&req.id)
            .expect("wait on unknown or already-completed receive");
        if let Some(msg) = pending.claimed {
            return Ok(msg);
        }
        let key = pending.key;
        let t0 = Instant::now();
        let outcome = self.deadline_pop(key, timeout);
        self.profiler.add(cat, t0.elapsed());
        match outcome {
            Ok(msg) => Ok(msg),
            Err(err) => {
                // Hand the request back still posted: a message that
                // arrives later (or was in flight) can complete it on a
                // retry.
                self.pending_recvs
                    .insert(req.id, PendingRecv { key, claimed: None });
                Err((req, err))
            }
        }
    }

    fn peer_alive(&mut self, rank: usize) -> bool {
        !self.shared.killed[rank].load(Ordering::SeqCst)
    }

    fn fault_policy(&self) -> FaultPolicy {
        self.shared.policy
    }

    fn cancel_recv(&mut self, req: RecvReq) {
        self.pending_recvs.remove(&req.id);
    }

    fn abort_cleanup(&mut self) {
        self.purge(|ctx| ctx.op != 0);
    }

    fn purge_stale(&mut self, keep: u32) -> u64 {
        self.purge(|ctx| ctx.epoch != keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_round_trip() {
        let world = ThreadWorld::new(2);
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, Bytes::from(vec![1u8, 2, 3]));
                c.recv(1, 2).to_vec()
            } else {
                let m = c.recv(0, 1).to_vec();
                c.send(0, 2, Bytes::from(vec![9u8]));
                m
            }
        });
        assert_eq!(out.results[0], vec![9]);
        assert_eq!(out.results[1], vec![1, 2, 3]);
    }

    #[test]
    fn tag_isolation() {
        // A message on tag 5 must not satisfy a receive on tag 6.
        let world = ThreadWorld::new(2);
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, Bytes::from_static(b"five"));
                c.send(1, 6, Bytes::from_static(b"six"));
                Vec::new()
            } else {
                let six = c.recv(0, 6).to_vec();
                let five = c.recv(0, 5).to_vec();
                vec![six, five]
            }
        });
        assert_eq!(out.results[1], vec![b"six".to_vec(), b"five".to_vec()]);
    }

    #[test]
    fn fifo_per_source_tag() {
        let world = ThreadWorld::new(2);
        let out = world.run(|c| {
            if c.rank() == 0 {
                for i in 0..10u8 {
                    c.send(1, 3, Bytes::from(vec![i]));
                }
                Vec::new()
            } else {
                (0..10).map(|_| c.recv(0, 3)[0]).collect()
            }
        });
        assert_eq!(out.results[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn test_recv_claims_once() {
        let world = ThreadWorld::new(2);
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, Bytes::from_static(b"x"));
                0
            } else {
                let req = c.irecv(0, 1);
                // Spin until the test succeeds.
                while !c.test_recv(&req) {
                    std::thread::yield_now();
                }
                // A second test on the same request stays true.
                assert!(c.test_recv(&req));
                let msg = c.wait_recv(req);
                msg.len()
            }
        });
        assert_eq!(out.results[1], 1);
    }

    #[test]
    fn try_recv_and_try_send_never_block() {
        let world = ThreadWorld::new(2);
        let out = world.run(|c| {
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_millis(5));
                let req = c.isend(1, 1, Bytes::from_static(b"late"));
                // Eager buffered sends complete immediately.
                assert!(c.try_send(req, Category::Wait).is_ok());
                0
            } else {
                let mut req = Some(c.irecv(0, 1));
                let mut polls = 0usize;
                loop {
                    match c.try_recv(req.take().expect("pending"), Category::Wait) {
                        Ok(msg) => {
                            assert_eq!(&msg[..], b"late");
                            break;
                        }
                        Err(r) => {
                            req = Some(r);
                            polls += 1;
                            std::thread::yield_now();
                        }
                    }
                }
                polls
            }
        });
        assert!(out.results[1] >= 1, "message cannot have arrived instantly");
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PHASE: AtomicUsize = AtomicUsize::new(0);
        PHASE.store(0, Ordering::SeqCst);
        let world = ThreadWorld::new(4);
        let out = world.run(|c| {
            PHASE.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all arrivals.
            PHASE.load(Ordering::SeqCst)
        });
        assert!(out.results.iter().all(|&v| v == 4), "{:?}", out.results);
    }

    #[test]
    fn repeated_barriers() {
        let world = ThreadWorld::new(3);
        let out = world.run(|c| {
            for _ in 0..50 {
                c.barrier();
            }
            c.rank()
        });
        assert_eq!(out.results, vec![0, 1, 2]);
    }

    #[test]
    fn sendrecv_ring() {
        let world = ThreadWorld::new(5);
        let out = world.run(|c| {
            let n = c.size();
            let right = (c.rank() + 1) % n;
            let left = (c.rank() + n - 1) % n;
            let got = c.sendrecv(
                right,
                left,
                9,
                Bytes::from(vec![c.rank() as u8]),
                Category::Others,
            );
            got[0] as usize
        });
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + 4) % 5);
        }
    }

    #[test]
    fn wait_time_is_profiled() {
        let world = ThreadWorld::new(2);
        let out = world.run(|c| {
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                c.send(1, 1, Bytes::from_static(b"late"));
            } else {
                let req = c.irecv(0, 1);
                c.wait_recv_in(req, Category::Wait);
            }
        });
        let waited = out.breakdowns[1].get(Category::Wait);
        assert!(waited >= Duration::from_millis(10), "waited {waited:?}");
    }

    #[test]
    fn dead_peer_fails_receive_with_structured_error() {
        let world = ThreadWorld::with_fault_policy(
            3,
            FaultPolicy::with_timeout(Duration::from_millis(50), 2),
        );
        let out = world.run(|c| {
            if c.rank() == 2 {
                c.mark_self_dead();
                return "dead".to_string();
            }
            let req = c.irecv(2, 9);
            match c.wait_recv_retry_in(req, Category::Wait) {
                Ok(_) => "unexpected payload".to_string(),
                Err(e) => e.to_string(),
            }
        });
        assert_eq!(out.results[2], "dead");
        for r in 0..2 {
            assert_eq!(out.results[r], "peer rank 2 is dead", "rank {r}");
        }
    }

    #[test]
    fn receive_deadline_elapses_into_timeout() {
        let world = ThreadWorld::with_fault_policy(
            2,
            FaultPolicy::with_timeout(Duration::from_millis(15), 0),
        );
        let out = world.run(|c| {
            if c.rank() == 0 {
                return (true, Duration::ZERO);
            }
            let req = c.irecv(0, 7);
            match c.wait_recv_timeout_in(req, Some(Duration::from_millis(15)), Category::Wait) {
                Ok(_) => (false, Duration::ZERO),
                Err((r, CommError::Timeout { src, tag, waited })) => {
                    assert_eq!((src, tag), (0, 7));
                    c.cancel_recv(r);
                    (true, waited)
                }
                Err((_, other)) => panic!("unexpected error {other}"),
            }
        });
        assert!(out.results[1].0, "expected a timeout");
        assert!(out.results[1].1 >= Duration::from_millis(15));
    }

    #[test]
    fn message_delivered_before_crash_still_deliverable() {
        let world = ThreadWorld::with_fault_policy(
            2,
            FaultPolicy::with_timeout(Duration::from_millis(50), 1),
        );
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.isend(1, 3, Bytes::from_static(b"last words"));
                c.mark_self_dead();
                return Vec::new();
            }
            // Drain the delivered message even though the sender is dead...
            let req = c.irecv(0, 3);
            let first = c
                .wait_recv_retry_in(req, Category::Wait)
                .expect("delivered before the crash")
                .to_vec();
            // ...and only the *next* receive observes the death.
            let req = c.irecv(0, 3);
            assert!(matches!(
                c.wait_recv_retry_in(req, Category::Wait),
                Err(CommError::PeerDead { peer: 0 })
            ));
            first
        });
        assert_eq!(out.results[1], b"last words");
    }

    #[test]
    fn barrier_releases_survivors_after_death() {
        let world = ThreadWorld::with_fault_policy(
            3,
            FaultPolicy::with_timeout(Duration::from_millis(50), 0),
        );
        let out = world.run(|c| {
            if c.rank() == 2 {
                // Give the survivors a chance to arrive first so the
                // mid-generation release path is exercised sometimes.
                std::thread::sleep(Duration::from_millis(5));
                c.mark_self_dead();
                return 0usize;
            }
            c.barrier();
            c.barrier(); // survivors can keep synchronizing
            1usize
        });
        assert_eq!(out.results, vec![1, 1, 0]);
    }

    #[test]
    fn purge_counts_posted_receives_and_undelivered_messages() {
        let world = ThreadWorld::new(2);
        let out = world.run(|c| {
            if c.rank() == 0 {
                for i in 0..3u8 {
                    c.isend(1, 9, Bytes::from(vec![i]));
                }
                c.send(1, 1, Bytes::from_static(b"go"));
                return 0;
            }
            // The tag-1 receive completing guarantees the three tag-9
            // messages (sent earlier by the same thread) are deposited.
            let _ = c.recv(0, 1);
            let _r1 = c.irecv(0, 7);
            let _r2 = c.irecv(0, 7);
            // All five entries are in epoch 0, so keeping epoch 1
            // discards them.
            c.purge_stale(1)
        });
        assert_eq!(out.results[1], 2 + 3);
    }

    #[test]
    fn idle_waits_for_a_message_on_a_posted_receive() {
        let out = ThreadWorld::new(2).run(|c| {
            if c.rank() == 0 {
                // Rank 1 has started its clock once the barrier lets us go.
                c.barrier();
                std::thread::sleep(Duration::from_millis(20));
                // Not addressed to a posted receive: no wake-up.
                c.isend(1, 8, Bytes::from_static(b"other"));
                std::thread::sleep(Duration::from_millis(20));
                c.isend(1, 7, Bytes::from_static(b"late"));
                return (Duration::ZERO, Duration::ZERO);
            }
            let req = c.irecv(0, 7);
            let t0 = Instant::now();
            c.barrier();
            assert!(c.idle());
            let waited = t0.elapsed();
            // Already queued: returns at once.
            assert!(c.idle());
            assert_eq!(&c.wait_recv(req)[..], b"late");
            let _ = c.recv(0, 8);
            (waited, c.profiler().breakdown().get(Category::Wait))
        });
        let (waited, wait_charged) = out.results[1];
        assert!(waited >= Duration::from_millis(40), "{waited:?}");
        // The idle's own span, which starts after the barrier, is `Wait`.
        assert!(
            wait_charged >= Duration::from_millis(20),
            "{wait_charged:?}"
        );
    }

    #[test]
    fn idle_times_out_and_reports_a_dead_peer() {
        let policy = FaultPolicy::with_timeout(Duration::from_millis(15), 0);
        let out = ThreadWorld::with_fault_policy(3, policy).run(|c| {
            match c.rank() {
                2 => {
                    c.mark_self_dead();
                    (true, true)
                }
                1 => {
                    let req = c.irecv(0, 5);
                    let t0 = Instant::now();
                    let woke = c.idle();
                    c.cancel_recv(req);
                    (woke, t0.elapsed() >= Duration::from_millis(15))
                }
                _ => {
                    let req = c.irecv(2, 5);
                    // Rank 2 never sends: `false` once it is known dead.
                    let woke = c.idle();
                    c.cancel_recv(req);
                    (woke, true)
                }
            }
        });
        assert_eq!(out.results[1], (false, true), "timeout");
        assert_eq!(out.results[0], (false, true), "dead peer");
    }

    #[test]
    fn many_ranks_all_to_all() {
        let world = ThreadWorld::new(8);
        let out = world.run(|c| {
            let n = c.size();
            let me = c.rank();
            let reqs: Vec<_> = (0..n).filter(|&p| p != me).map(|p| c.irecv(p, 4)).collect();
            for p in 0..n {
                if p != me {
                    c.isend(p, 4, Bytes::from(vec![me as u8]));
                }
            }
            let mut sum = 0usize;
            for r in reqs {
                sum += c.wait_recv(r)[0] as usize;
            }
            sum
        });
        let expect: usize = (0..8).sum();
        for (r, &s) in out.results.iter().enumerate() {
            assert_eq!(s, expect - r);
        }
    }
}
