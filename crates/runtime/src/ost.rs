//! One OST as a real OS thread wrapping the shared control-plane node.
//!
//! Decentralization is structural here: a [`LiveOst`] thread owns its
//! [`OstNode`] — NRS/TBF scheduler, local `job_stats`, and, under AdapTBF,
//! its **own** controller — behind a channel; nothing is shared with other
//! OSTs (paper Section II-B). The node is the exact same assembly
//! `adaptbf-sim` embeds per simulated OST; only the drive differs: an
//! emulated I/O thread pool against the wall clock instead of a
//! discrete-event loop.
//!
//! The data path is batched for rate: clients submit [`LiveBatch`]es of
//! RPCs, the thread drains its ingest channel in bursts (one blocking
//! receive, then a non-blocking sweep), completions are signaled as
//! *counted* tokens — one `u64` per client process per loop pass instead
//! of one message per RPC — and every metric lands in this thread's
//! private [`OstShard`]. Completions are stamped at their **emulated
//! finish instants**, and each drained service immediately catch-up
//! dispatches the freed emulated I/O slot *at that instant*, so the
//! emulated disk never idles on scheduler wake-up lag and sub-millisecond
//! service quanta sustain full rate without busy-spinning.
//!
//! The full `FaultPlan` battery runs here, through the node steps the
//! simulator drives too. Time-indexed faults (`disk_degrade`, `ost_crash`
//! windows, churn) key off the wall clock; cycle-indexed faults
//! (`controller_stall`, `stats_loss_every`) key off the node's own cycle
//! counter in [`OstNode::control_cycle`]. Arrivals and resends route
//! through the shared [`Routing`], and a crash window drives
//! [`OstNode::crash`] / [`OstNode::recover`] with the same audited
//! `FaultStats` partition the sim keeps: in-flight RPCs die with the I/O
//! threads (`lost_in_service`, resent after the client timeout), the
//! queued backlog drains to resends, and first-hand arrivals re-route to
//! a surviving stripe member (`rerouted`) or park until recovery
//! (`parked`). Redeliveries the horizon cuts off count `undelivered`.
//! What stays here is time and transport: the emulated I/O pool, the
//! wall-clock deadlines and the channels a handoff travels on.

use crate::clock::WallClock;
use crate::metrics::OstShard;
use adaptbf_model::{OstConfig, Rpc, SimDuration, SimTime};
use adaptbf_node::{ControllerOverhead, FaultStats, OstNode, Route, Routing};
use adaptbf_tbf::SchedDecision;
use adaptbf_workload::trace::TraceRecord;
use adaptbf_workload::{CrashSpec, FaultPlan};
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::thread::JoinHandle;
use std::time::Duration;

/// A batch of RPCs on the wire: metadata + payload + the issuing
/// process's completion path. Client issue batches carry RPCs of a single
/// process; crash-window handoffs and redeliveries travel as singletons.
#[derive(Debug)]
pub struct LiveBatch {
    /// RPC metadata (job, size, …), all from the same issuing process.
    pub rpcs: Vec<Rpc>,
    /// Bulk payload (cheaply cloned slice of a shared buffer).
    pub payload: Bytes,
    /// Where to signal completions: counted tokens, each worth that many
    /// completed RPCs of the issuing process.
    pub reply_to: Sender<u64>,
    /// `true` for a crash-window handoff from another OST (re-route or
    /// resend): demand and fault accounting already happened at the
    /// addressed OST, so the receiver only enqueues.
    pub handoff: bool,
}

/// Where one OST sits in the cluster — what the crash re-route needs to
/// re-derive a displaced RPC's stripe set, exactly like the simulator's
/// pure routing.
#[derive(Debug, Clone, Copy)]
pub struct OstWiring {
    /// This OST's index.
    pub index: usize,
    /// OSTs in the cluster.
    pub n_osts: usize,
    /// Stripe width processes spread their RPCs over.
    pub stripe_count: usize,
}

/// Final state returned when a live OST shuts down.
#[derive(Debug)]
pub struct OstFinal {
    /// RPCs fully serviced.
    pub served: u64,
    /// Final lending/borrowing records (AdapTBF only).
    pub records: std::collections::BTreeMap<adaptbf_model::JobId, i64>,
    /// Controller cycles executed (AdapTBF only).
    pub ticks: u64,
    /// Control-plane overhead accounting (AdapTBF only).
    pub overhead: Option<ControllerOverhead>,
    /// This OST's share of the crash/failover accounting (all zero unless
    /// this OST is the one a crash window targets).
    pub fault_stats: FaultStats,
    /// The thread's sealed metrics shard, folded by the cluster at join.
    pub shard: crate::metrics::OstShardOut,
}

/// Handle to a spawned OST thread.
pub struct LiveOstHandle {
    tx: Option<Sender<LiveBatch>>,
    join: Option<JoinHandle<OstFinal>>,
}

impl LiveOstHandle {
    /// A sender clients use to submit RPC batches.
    pub fn sender(&self) -> Sender<LiveBatch> {
        self.tx.as_ref().expect("OST running").clone()
    }

    /// Drop the ingest channel and join the thread, returning final state.
    pub fn shutdown(mut self) -> OstFinal {
        self.tx = None; // close our end; thread drains and exits
        self.join
            .take()
            .expect("not yet joined")
            .join()
            .expect("OST thread panicked")
    }
}

/// Spawner for live OST threads.
pub struct LiveOst;

impl LiveOst {
    /// Spawn one OST thread around an assembled control-plane `node`.
    ///
    /// `rx` is the ingest end of the OST's channel (the cluster creates
    /// all channels up front so a crash window can hand work to peers);
    /// `peers` carries senders to the *other* OSTs — non-empty only on the
    /// OST a crash targets, `None` at its own slot. `payload` is the
    /// cluster's shared payload template, cloned for forwarded handoffs.
    /// `shard` is this thread's private slice of the run's collector.
    /// The thread stops serving at `horizon` — queued work past it is
    /// dropped, exactly like the simulator's run cutoff.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        name: String,
        tx: Sender<LiveBatch>,
        rx: Receiver<LiveBatch>,
        ost_cfg: OstConfig,
        node: OstNode,
        faults: FaultPlan,
        wiring: OstWiring,
        peers: Vec<Option<Sender<LiveBatch>>>,
        horizon: SimTime,
        clock: WallClock,
        shard: OstShard,
        seed: u64,
        payload: Bytes,
    ) -> LiveOstHandle {
        let join = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                OstThread::new(node, shard, ost_cfg, faults, wiring, peers, seed, payload)
                    .run(rx, horizon, clock)
            })
            .expect("spawn OST thread");
        LiveOstHandle {
            tx: Some(tx),
            join: Some(join),
        }
    }
}

struct InService {
    finish: SimTime,
    seq: u64,
    rpc: Rpc,
}

impl PartialEq for InService {
    fn eq(&self, other: &Self) -> bool {
        self.finish == other.finish && self.seq == other.seq
    }
}
impl Eq for InService {}
impl PartialOrd for InService {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InService {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish
            .cmp(&other.finish)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A displaced RPC waiting for its client-timeout resend (or, post-park,
/// its recovery-time redelivery). The reply path is re-derived from the
/// per-process reply map at redelivery time.
struct Resend {
    at: SimTime,
    rpc: Rpc,
}

/// Floor on idle waits: with sub-millisecond service quanta the next
/// emulated finish is almost always "now", and honoring it with a
/// microsecond sleep would spin the core. The finish-instant catch-up
/// dispatch in [`OstThread::drain_due`] makes a late wake harmless — the
/// emulated timeline is reconstructed exactly — so the loop never sleeps
/// for less than this.
const MIN_WAIT: Duration = Duration::from_micros(200);

/// Everything one OST thread owns: the shared [`OstNode`] plus this
/// executor's time and transport — the emulated I/O pool, the client
/// reply paths, the displaced RPCs waiting on the wall clock, and the
/// peer links a crash window hands work over.
struct OstThread {
    node: OstNode,
    shard: OstShard,
    ost_cfg: OstConfig,
    faults: FaultPlan,
    routing: Routing,
    my: usize,
    /// Services on the emulated I/O threads, earliest finish first.
    busy: BinaryHeap<Reverse<InService>>,
    seq: u64,
    rng: SmallRng,
    /// Senders to the other OSTs (see [`LiveOst::spawn`]).
    peers: Vec<Option<Sender<LiveBatch>>>,
    payload: Bytes,
    /// Completion path per client process: its reply sender, learned
    /// from its first batch…
    reply: HashMap<u32, Sender<u64>>,
    /// …and the counted tokens accumulated since the last flush.
    done: HashMap<u32, u64>,
    /// Displaced RPCs waiting for their resend deadline.
    resends: Vec<Resend>,
    /// First-hand arrivals with no surviving stripe member, waiting for
    /// recovery.
    parked: Vec<Rpc>,
    served: u64,
    fault_stats: FaultStats,
}

impl OstThread {
    #[allow(clippy::too_many_arguments)]
    fn new(
        node: OstNode,
        shard: OstShard,
        ost_cfg: OstConfig,
        faults: FaultPlan,
        wiring: OstWiring,
        peers: Vec<Option<Sender<LiveBatch>>>,
        seed: u64,
        payload: Bytes,
    ) -> Self {
        OstThread {
            node,
            shard,
            ost_cfg,
            faults,
            routing: Routing::new(&faults, wiring.n_osts, wiring.stripe_count),
            my: wiring.index,
            busy: BinaryHeap::new(),
            seq: 0,
            rng: SmallRng::seed_from_u64(seed),
            peers,
            payload,
            reply: HashMap::new(),
            done: HashMap::new(),
            resends: Vec::new(),
            parked: Vec::new(),
            served: 0,
            fault_stats: FaultStats::default(),
        }
    }

    /// Put `rpc` on an emulated I/O thread at `at`: the configured mean
    /// service time, stretched by any active device-degradation window,
    /// jittered.
    fn start_service(&mut self, rpc: Rpc, at: SimTime) {
        let mean = self.ost_cfg.mean_service_secs() * self.faults.disk_factor(at);
        let j = self.ost_cfg.service_jitter;
        let factor = if j > 0.0 {
            1.0 + self.rng.gen_range(-j..=j)
        } else {
            1.0
        };
        self.busy.push(Reverse(InService {
            finish: at + SimDuration::from_secs_f64(mean * factor),
            seq: self.seq,
            rpc,
        }));
        self.seq += 1;
    }

    /// Count one completed service at its finish instant.
    fn complete(&mut self, s: &InService) {
        self.served += 1;
        self.shard.on_served(s.rpc.job, s.finish, s.rpc.issued_at);
        *self.done.entry(s.rpc.proc_id.raw()).or_insert(0) += 1;
    }

    /// Drain every emulated service due by `cutoff`, recording each at its
    /// **finish instant** (not the loop's wake time, which would absorb
    /// scheduler wake-up lag into latency), and catch-up dispatch the
    /// freed I/O slot at that same instant. The chain — finish, serve,
    /// dispatch, finish… — reconstructs the emulated disk's timeline
    /// exactly however late the thread wakes, which is what lets
    /// sub-millisecond quanta run at full rate on coarse wakes.
    /// Completions accumulate as counted tokens in `done`.
    fn drain_due(&mut self, cutoff: SimTime) {
        while self
            .busy
            .peek()
            .is_some_and(|Reverse(s)| s.finish <= cutoff)
        {
            let Reverse(s) = self.busy.pop().expect("peeked");
            self.complete(&s);
            // The slot freed at `finish` would have picked up queued work
            // at that instant; the token bucket treats past instants as
            // no-op refills, so this replays the dispatch the emulated
            // disk would have made. Never inside a crash window — the
            // pool is down.
            if !self.routing.crashed_at(self.my, s.finish) {
                if let SchedDecision::Serve(rpc) = self.node.scheduler.next(s.finish) {
                    self.start_service(rpc, s.finish);
                }
            }
        }
    }

    /// Fill idle emulated I/O threads at `now`; returns the token-bucket
    /// deadline the scheduler is waiting on, if any.
    fn dispatch(&mut self, now: SimTime) -> Option<SimTime> {
        while self.busy.len() < self.ost_cfg.n_io_threads {
            match self.node.scheduler.next(now) {
                SchedDecision::Serve(rpc) => self.start_service(rpc, now),
                SchedDecision::WaitUntil(deadline) => return Some(deadline),
                SchedDecision::Idle => break,
            }
        }
        None
    }

    /// Send the accumulated completion counts, one token per process. A
    /// gone issuer (horizon race) is fine — the token is simply dropped.
    fn flush_done(&mut self) {
        if self.done.is_empty() {
            return;
        }
        for (proc, n) in self.done.drain() {
            if let Some(tx) = self.reply.get(&proc) {
                let _ = tx.send(n);
            }
        }
    }

    /// The crash instant: services finished strictly before it still
    /// count, in-flight RPCs die with their threads, the node drains its
    /// backlog, and every lost RPC is resent at the client timeout. The
    /// timeout anchors at the loss — the crash instant — like the
    /// simulator's; `max(now)` guards a lagging thread.
    fn crash(&mut self, crash: CrashSpec, now: SimTime) {
        // No catch-up dispatch here: anything the freed slots would have
        // picked up dies in the backlog instead.
        while self
            .busy
            .peek()
            .is_some_and(|Reverse(s)| s.finish < crash.from)
        {
            let Reverse(s) = self.busy.pop().expect("peeked");
            self.complete(&s);
        }
        let in_service = self.busy.drain().map(|Reverse(s)| s.rpc).collect();
        let lost = self.node.crash(in_service, &mut self.fault_stats);
        let at = (crash.from + crash.resend_after).max(now);
        self.resends
            .extend(lost.into_iter().map(|rpc| Resend { at, rpc }));
    }

    /// Land a displaced RPC on its surviving OST `target`. A survivor
    /// that already shut down (horizon race) loses the redelivery, but
    /// never uncounted. Runs only inside a crash window, so it is kept
    /// out of the ingest loop it is called from.
    #[cold]
    fn hand_off(&mut self, target: usize, rpc: Rpc) {
        let handoff = LiveBatch {
            rpcs: vec![rpc],
            payload: self.payload.clone(),
            reply_to: self.reply[&rpc.proc_id.raw()].clone(),
            handoff: true,
        };
        let peer = self.peers[target]
            .as_ref()
            .expect("crashed OST wired to peers");
        if peer.send(handoff).is_err() {
            self.fault_stats.undelivered += 1;
        }
    }

    /// Redeliver the resends due at `now`: to a surviving stripe member
    /// while the window is open (parking when none survives), locally
    /// otherwise.
    fn redeliver_due(&mut self, now: SimTime) {
        if !self.resends.iter().any(|r| r.at <= now) {
            return;
        }
        let (due, later) = std::mem::take(&mut self.resends)
            .into_iter()
            .partition(|r| r.at <= now);
        self.resends = later;
        for Resend { rpc, .. } in due {
            match self.routing.route(self.my, &rpc, now) {
                Route::Local => self.node.admit(rpc, now),
                Route::Reroute(target) => self.hand_off(target, rpc),
                Route::Park => self.parked.push(rpc),
            }
        }
    }

    /// Absorb one ingest batch at wall instant `now`: learn the issuing
    /// process's reply path, then admit (handoffs) or run the first-hand
    /// arrival path (record, demand, crash re-route/park) per RPC.
    fn ingest(&mut self, batch: LiveBatch, now: SimTime) {
        debug_assert!(!batch.payload.is_empty());
        let LiveBatch {
            rpcs,
            reply_to,
            handoff,
            ..
        } = batch;
        if let Some(first) = rpcs.first() {
            debug_assert!(
                rpcs.iter().all(|r| r.proc_id == first.proc_id),
                "a batch carries one process's RPCs"
            );
            self.reply.entry(first.proc_id.raw()).or_insert(reply_to);
        }
        if handoff {
            // A crash-window handoff from a peer: demand, trace and fault
            // accounting already happened at the addressed OST.
            for rpc in rpcs {
                self.node.admit(rpc, now);
            }
            return;
        }
        let recording = self.shard.is_recording();
        for rpc in rpcs {
            // First-hand (client-originated) arrival: recorded with the
            // *addressed* OST before any crash re-routing, exactly like
            // the simulator's recorder — replays re-derive the re-route
            // from the plan.
            if recording {
                self.shard.on_record(TraceRecord {
                    at: now,
                    ost: self.my,
                    rpc,
                });
            }
            self.shard.on_arrival(rpc.job, now);
            match self
                .routing
                .route_arrival(self.my, &rpc, now, &mut self.fault_stats)
            {
                Route::Local => self.node.admit(rpc, now),
                Route::Reroute(target) => self.hand_off(target, rpc),
                Route::Park => self.parked.push(rpc),
            }
        }
    }

    /// The thread's event loop, to the horizon or until the world hangs
    /// up and all work is drained.
    fn run(mut self, rx: Receiver<LiveBatch>, horizon: SimTime, clock: WallClock) -> OstFinal {
        let crash = self.faults.ost_crash.filter(|c| c.ost == self.my);
        let mut crash_done = false;
        let mut recover_done = false;
        // The controller's tick cadence comes from the node's policy; the
        // wall-clock deadline is this executor's analogue of the
        // simulator's ControllerTick event.
        let period = self.node.policy().period();
        let mut next_tick: Option<SimTime> = period.map(|p| clock.now() + p);
        let mut disconnected = false;
        loop {
            let now = clock.now();

            // 0. Crash-window transitions. At the crash instant the I/O
            // threads die and the control plane resets; at recovery the
            // node rejoins with empty bucket state and parked arrivals
            // land.
            if let Some(c) = crash {
                if !crash_done && now >= c.from {
                    crash_done = true;
                    self.crash(c, now);
                }
                if crash_done && !recover_done && now >= c.recovery_at() {
                    recover_done = true;
                    self.node.recover(now);
                    for rpc in std::mem::take(&mut self.parked) {
                        self.node.admit(rpc, now);
                    }
                }
            }
            let crashed = self.routing.crashed_at(self.my, now);

            // The horizon cuts the run off exactly like the simulator's:
            // due completions still count (drained at their finish
            // instants, all <= horizon), queued and in-flight work is
            // dropped; displaced RPCs the run ends before redelivering are
            // tallied `undelivered` after the loop.
            if now >= horizon {
                self.drain_due(horizon);
                break;
            }

            // 1. Redeliver due resends.
            self.redeliver_due(now);

            // 2. Complete services that are due — at their emulated
            // finish instants, chaining catch-up dispatches — then flush
            // the counted completion tokens (one message per process per
            // pass).
            self.drain_due(now);
            self.flush_done();

            // 3. Controller cycle: the shared node step. Schedule the next
            // from *now*, like the simulator: if the thread lagged past a
            // whole period, anchoring on the missed deadline would fire an
            // immediate catch-up tick on freshly cleared stats, which
            // stops every rule until the next real cycle.
            if let (Some(tick_at), Some(period)) = (next_tick, period) {
                if now >= tick_at {
                    if self
                        .node
                        .control_cycle(now, &self.faults, crashed, self.shard.metrics_mut())
                    {
                        self.shard.on_tick();
                    }
                    next_tick = Some(now + period);
                }
            }

            // 4. Dispatch onto idle emulated I/O threads (never inside a
            // crash window — the pool is down).
            let tbf_wait = if crashed { None } else { self.dispatch(now) };

            // 5. Work out how long to sleep (never past the horizon).
            let crash_edge = crash.and_then(|c| {
                if !crash_done {
                    Some(c.from)
                } else if !recover_done {
                    Some(c.recovery_at())
                } else {
                    None
                }
            });
            let wake = [
                self.busy.peek().map(|Reverse(s)| s.finish),
                tbf_wait,
                next_tick,
                crash_edge,
                self.resends.iter().map(|r| r.at).min(),
                Some(horizon),
            ]
            .into_iter()
            .flatten()
            .min();

            // 6. Exit when the world has hung up and all work is drained.
            if disconnected
                && self.busy.is_empty()
                && self.node.scheduler.pending() == 0
                && self.resends.is_empty()
                && self.parked.is_empty()
            {
                break;
            }

            // 7. Wait for traffic or the next deadline. Sub-millisecond
            // deadlines are floored at MIN_WAIT — the finish-instant drain
            // above reconstructs anything that came due in the meantime.
            let timeout = match wake {
                Some(at) => clock.until(at).max(MIN_WAIT),
                None if disconnected => break,
                None => Duration::from_millis(50),
            };
            if disconnected {
                // The channel reports Disconnected instantly; sleep to the
                // deadline instead of spinning.
                std::thread::sleep(timeout.min(Duration::from_millis(50)));
                continue;
            }
            match rx.recv_timeout(timeout) {
                Ok(batch) => {
                    let now = clock.now();
                    self.ingest(batch, now);
                    // Burst-drain whatever else is already buffered: one
                    // wake amortizes over every queued batch.
                    while let Some(batch) = rx.try_recv() {
                        self.ingest(batch, now);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => disconnected = true,
            }
        }
        self.flush_done();

        // Displaced RPCs whose redelivery the run ended before: unserved
        // but never uncounted (the simulator's
        // `count_undelivered_remainder`).
        self.fault_stats.undelivered += (self.resends.len() + self.parked.len()) as u64;

        OstFinal {
            served: self.served,
            records: self.node.ledger_records(),
            ticks: self.node.ticks(),
            overhead: self.node.overhead(),
            fault_stats: self.fault_stats,
            shard: self.shard.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LiveMetrics;
    use adaptbf_model::{ClientId, JobId, OpCode, ProcId, RpcId, TbfSchedulerConfig};

    fn rpc(id: u64, issued_ms: u64) -> Rpc {
        Rpc {
            id: RpcId(id),
            job: JobId(1),
            client: ClientId(0),
            proc_id: ProcId(0),
            op: OpCode::Write,
            size_bytes: 4096,
            issued_at: SimTime::from_millis(issued_ms),
        }
    }

    /// A fault-free, unwired OST thread around `node`, seeded 1.
    fn thread(cfg: OstConfig, node: OstNode, metrics: &LiveMetrics) -> OstThread {
        let wiring = OstWiring {
            index: 0,
            n_osts: 1,
            stripe_count: 1,
        };
        let payload = Bytes::from(vec![0u8]);
        OstThread::new(
            node,
            metrics.ost_shard(0),
            cfg,
            FaultPlan::none(),
            wiring,
            Vec::new(),
            1,
            payload,
        )
    }

    /// A regression test: a deliberately coarse tick (the loop
    /// wakes 10 s late) must not inflate the live latency histogram or
    /// smear the served timeline — completions are stamped at their
    /// emulated finish instants, and the freed slots catch-up dispatch the
    /// queued backlog at those instants, not at the wake.
    #[test]
    fn drain_due_serves_at_finish_under_a_coarse_tick() {
        // 1 emulated I/O thread at exactly 1 ms per RPC, no jitter.
        let cfg = OstConfig {
            n_io_threads: 1,
            disk_bw_bytes_per_s: 1000 * 4096,
            service_jitter: 0.0,
            rpc_size: 4096,
        };
        let metrics = LiveMetrics::new(SimDuration::from_millis(100), 1, Vec::new());
        let mut t = thread(
            cfg,
            OstNode::unruled(TbfSchedulerConfig::default()),
            &metrics,
        );
        t.seq = 2;

        // Two services already in flight, finishing at 10 and 20 ms…
        t.busy.push(Reverse(InService {
            finish: SimTime::from_millis(10),
            seq: 0,
            rpc: rpc(0, 0),
        }));
        t.busy.push(Reverse(InService {
            finish: SimTime::from_millis(20),
            seq: 1,
            rpc: rpc(1, 5),
        }));
        // …and three more queued behind them at t=0.
        for id in 2..5 {
            t.node.scheduler.enqueue(rpc(id, 0), SimTime::ZERO);
        }

        // The thread wakes a full 10 s late.
        t.drain_due(SimTime::from_secs(10));
        assert_eq!(
            t.served, 5,
            "the whole chain drains: 2 in flight + 3 queued"
        );
        assert_eq!(t.done[&0], 5, "counted completion tokens accumulate");
        assert!(t.busy.is_empty() && t.node.scheduler.pending() == 0);

        let (folded, _) = metrics.fold(vec![t.shard.finish()], SimTime::from_secs(10));
        assert_eq!(folded.served_of(JobId(1)), 5);
        let latency = folded.latency(JobId(1));
        assert_eq!(latency.count(), 5);
        // True latencies are 10–15 ms (chained finishes 10, 11, 12, 13 ms
        // plus the 20 ms finish issued at 5 ms); the histogram's
        // power-of-two buckets bound each at <2x. A wake-time stamp would
        // read ~10 s.
        assert!(
            latency.p99() < SimDuration::from_millis(100),
            "coarse tick inflated latency: p99 {:?}",
            latency.p99()
        );
        // All five land in the first 100 ms timeline bucket, not at 10 s.
        let served_series = folded.served();
        let s = served_series.get(JobId(1)).expect("job served");
        assert_eq!(s.get(0), 5.0, "serves attributed to their finish bucket");
        assert_eq!(
            s.values.iter().sum::<f64>(),
            5.0,
            "nothing attributed at the wake instant"
        );
    }

    /// The catch-up chain respects the token bucket: a rate-limited
    /// scheduler must not burst the whole backlog at the first freed slot.
    #[test]
    fn drain_due_catch_up_respects_tbf_rates() {
        let cfg = OstConfig {
            n_io_threads: 1,
            disk_bw_bytes_per_s: 1000 * 4096,
            service_jitter: 0.0,
            rpc_size: 4096,
        };
        let metrics = LiveMetrics::new(SimDuration::from_millis(100), 1, Vec::new());
        // 100 tokens/s for job 1: ~1 dispatch per 10 ms.
        let mut node = OstNode::unruled(TbfSchedulerConfig::default());
        node.scheduler.start_rule(
            "cap",
            adaptbf_tbf::RpcMatcher::Job(JobId(1)),
            100.0,
            1,
            SimTime::ZERO,
        );
        let mut t = thread(cfg, node, &metrics);
        t.seq = 1;
        t.busy.push(Reverse(InService {
            finish: SimTime::from_millis(1),
            seq: 0,
            rpc: rpc(0, 0),
        }));
        for id in 1..100 {
            t.node.scheduler.enqueue(rpc(id, 0), SimTime::ZERO);
        }
        // Waking 50 ms late must serve roughly rate * elapsed, not the
        // whole backlog.
        t.drain_due(SimTime::from_millis(50));
        assert!(
            t.served <= 20,
            "rate cap must hold through catch-up dispatch: served {}",
            t.served
        );
        assert!(t.node.scheduler.pending() > 70);
    }
}
