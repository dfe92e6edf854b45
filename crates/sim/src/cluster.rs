//! The simulated cluster: wiring clients, network, OSS/OST and the control
//! plane into one deterministic event loop — or several.
//!
//! ## Sharded execution
//!
//! The cluster can be split into `N` *shards* ([`Cluster::shards`]): each
//! shard owns a contiguous range of OSTs (and the client processes whose
//! base OST falls in that range) together with its own calendar
//! [`EventQueue`]. A static *emits* analysis of the wiring decides, per
//! shard, whether it can ever send a cross-shard message (a stripe set
//! crossing a shard boundary, or any crash window — which can re-route
//! anything). Non-emitting shards never *receive* either (every receiver
//! is an emitter: arrivals are answered with replies, replies come from
//! boundary stripes), so they drain fully independently at full speed
//! while the emitting shards run a conservative epoch protocol with
//! **adaptive windows**: each epoch, every emitting shard's published
//! next-event time `t_i` doubles as its earliest-output promise
//! `eot_i = t_i + L` (`L` = minimum one-way network latency — nothing a
//! shard does before `t_i` exists, and any message it sends matures at
//! least `L` later). The shard holding the global minimum runs the window
//! bounded by the *second*-earliest promise — capped one lookahead past
//! its own earliest emission, which is what keeps a reply to a message it
//! just sent from landing behind it (`Shard::run_capped`); everyone
//! else is bounded by the first promise. When exactly one emitting shard
//! holds events, its hard bound is open (`∞`) and it drains **solo** — no
//! barrier at all — until one lookahead past its first actual emission
//! ([`LoopStats::solo_drains`]). Cross-shard
//! messages are buffered in per-destination outboxes during the window
//! and exchanged at the barrier ([`WindowMode::Fixed`] keeps the original
//! static `[t_min, t_min + L)` protocol as the oracle the adaptive mode
//! is proptested against).
//!
//! ## Why the shard count cannot change the run
//!
//! Three properties make `report_digest` byte-identical for any shard
//! count (pinned by the golden suite and `tests/shard_determinism.rs`):
//!
//! 1. **Canonical event keys.** Every event is pushed under a key
//!    `(lane << LANE_SHIFT) | lane_seq` assigned at the *push site* from
//!    the pushing entity's own counter (lane 0 = the builder, then one
//!    lane per OST, then one per process). Ties at equal timestamps
//!    resolve by key, and the key depends only on the pusher's private
//!    event history — never on how pushes from different entities
//!    interleave. One shard or sixteen, every event carries the same key,
//!    so the global `(time, key)` processing order is the same total
//!    order.
//! 2. **Per-entity RNG streams and id spaces.** Network latency draws
//!    come from per-process (forward hop) and per-OST (reply hop)
//!    streams, service jitter from per-OST streams, and RPC ids from
//!    per-process id spaces — state that only its owner touches.
//! 3. **Pure-function fault routing.** Whether an OST is inside its
//!    crash window is a function of `(ost, t)` on the immutable fault
//!    plan ([`Routing`]), so a *sender* can compute the destination shard
//!    of a message at push time and the receiver re-derives the same
//!    answer at delivery time, with no shared mutable "crashed" flag.
//!
//! Same-timestamp coalescing (reply batches, duplicate thread wakes) may
//! group events differently per shard count — the queue only coalesces
//! *adjacent* matches, and what is adjacent differs — but all events that
//! can touch an entity live on its shard, so a coalesced batch performs
//! exactly the pushes, draws and state changes of the same events handled
//! singly. Only [`LoopStats::coalesced`] / peak depth (diagnostics, not
//! part of the digest) can differ.

use crate::client::ProcessState;
use crate::engine::EventQueue;
use crate::network::{draw_latency, min_latency};
use crate::ost::OstState;
use crate::pool::{ShardHeap, SpinBarrier};
use adaptbf_model::config::paper;
use adaptbf_model::{
    ClientId, JobId, NetworkConfig, OstConfig, ProcId, Rpc, SimDuration, SimTime,
    TbfSchedulerConfig,
};
use adaptbf_node::{ControllerOverhead, Metrics, OstNode, Policy, Route, Routing};
use adaptbf_tbf::SchedDecision;
use adaptbf_workload::trace::{Trace, TraceMeta, TraceRecord};
use adaptbf_workload::{FaultPlan, Scenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Static wiring of the simulated testbed (defaults mirror Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// OST disk/thread model.
    pub ost: OstConfig,
    /// Interconnect latency model.
    pub network: NetworkConfig,
    /// NRS TBF parameters (bucket depth).
    pub tbf: TbfSchedulerConfig,
    /// Client nodes processes are spread over (paper: 4).
    pub n_clients: usize,
    /// OSTs in the cluster; each runs its own independent controller.
    pub n_osts: usize,
    /// `T_i` used by the Static BW baseline's fixed rules.
    pub static_rate_total: f64,
    /// Metrics bucket width (paper observes at 100 ms).
    pub bucket: SimDuration,
    /// Lustre-style file striping: each process's sequential RPCs
    /// round-robin over this many OSTs (1 = file-per-OST, the default).
    pub stripe_count: usize,
    /// Deterministic failure injection (none by default).
    pub faults: FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            ost: paper::ost(),
            network: paper::network(),
            tbf: TbfSchedulerConfig::default(),
            n_clients: 4,
            n_osts: 1,
            static_rate_total: paper::MAX_TOKEN_RATE,
            bucket: SimDuration::from_millis(100),
            stripe_count: 1,
            faults: FaultPlan::none(),
        }
    }
}

pub use adaptbf_node::FaultStats;

/// Bit position of the lane id inside a canonical event key; the low bits
/// are the pushing lane's private sequence number.
const LANE_SHIFT: u32 = 40;

/// Counters the event loop keeps about itself (the `--bin simloop`
/// benchmark reads these; they cost one compare per event). On sharded
/// runs these are the [`LoopStats::absorb`] fold over all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Events popped and handled (including coalesced ones). Invariant
    /// across shard counts: every shard count processes the same events.
    pub events: u64,
    /// Future-event-list population high-water mark, sampled at pop time.
    /// On sharded runs: the *sum* of per-shard peaks — an upper bound on
    /// the global population (shards need not peak at the same instant),
    /// deterministic for a given shard count.
    pub peak_queue_depth: usize,
    /// Events absorbed by same-timestamp coalescing (reply batches and
    /// duplicate thread wakes) instead of being dispatched individually.
    /// Depends on queue adjacency and thus on the shard count (see the
    /// module docs); deterministic for a given shard count.
    pub coalesced: u64,
    /// Epoch rounds the coupled protocol ran (0 when every shard drained
    /// independently). Two barriers per epoch on the threaded path.
    /// Deterministic for a given shard count and window mode, and
    /// identical for any worker count.
    pub epochs: u64,
    /// Times the solo fast path engaged: exactly one emitting shard held
    /// events before the global cross-shard horizon and drained with no
    /// peer bound — free-running until one lookahead past its first
    /// emission. Same determinism as `epochs`.
    pub solo_drains: u64,
    /// Non-empty outbox→inbox hand-offs: one per (sender, receiver, epoch)
    /// with traffic, however many messages the batch carried. Same
    /// determinism as `epochs`.
    pub inbox_flushes: u64,
}

impl LoopStats {
    /// Fold another shard's self-accounting into this one (see the field
    /// docs for the per-field semantics of the fold).
    pub fn absorb(&mut self, other: &LoopStats) {
        self.events += other.events;
        self.peak_queue_depth += other.peak_queue_depth;
        self.coalesced += other.coalesced;
        self.epochs += other.epochs;
        self.solo_drains += other.solo_drains;
        self.inbox_flushes += other.inbox_flushes;
    }
}

/// How the coupled epoch protocol sizes its synchronization windows
/// ([`Cluster::windows`]). Purely an execution parameter: reports, traces
/// and digests are byte-identical under either mode (proptested by
/// `tests/shard_determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowMode {
    /// The default: windows extend to the other shards' earliest-output
    /// promises (`next_event + L`), non-emitting shards are split off by
    /// the static wiring analysis and drained independently, and a lone
    /// shard with events drains solo until it actually emits.
    #[default]
    Adaptive,
    /// The original conservative protocol: every shard steps the global
    /// window `[t_min, t_min + L)` each epoch. Kept as the reference
    /// oracle the adaptive mode is tested against.
    Fixed,
}

/// What one completed run hands back to the reporting layer.
#[derive(Debug)]
pub struct RawRunOutput {
    /// All collected series and counters.
    pub metrics: Metrics,
    /// Per-OST control-plane overhead (empty under the baselines).
    pub overheads: Vec<ControllerOverhead>,
    /// The horizon the run covered.
    pub end: SimTime,
    /// Event-loop self-accounting.
    pub loop_stats: LoopStats,
    /// Fault-machinery accounting (all zero on fault-free runs).
    pub fault_stats: FaultStats,
}

#[derive(Debug, Clone)]
enum Event {
    WorkArrival {
        proc: usize,
        rpcs: u64,
    },
    /// `ost` is the *addressed* OST (pre-re-route); the shard that owns
    /// the final destination receives the event and re-derives the route.
    ArriveAtOss {
        ost: usize,
        rpc: Rpc,
    },
    /// `epoch` snapshots the OST's crash epoch at service start: a crash
    /// bumps the epoch, so completions of RPCs the dead threads were
    /// holding arrive stale and are treated as lost (client resends).
    ServiceDone {
        ost: usize,
        rpc: Rpc,
        epoch: u32,
    },
    ThreadWake {
        ost: usize,
        at: SimTime,
    },
    ReplyAtClient {
        proc: usize,
    },
    ControllerTick {
        ost: usize,
    },
    /// The fault plan's OST crash window opens.
    OstCrash {
        ost: usize,
    },
    /// …and closes: the OST rejoins with empty bucket state.
    OstRecover {
        ost: usize,
    },
    /// A client resend / redelivery of an RPC the fault machinery
    /// displaced. Bypasses the recorder: a replay regenerates these
    /// deterministically from the fault plan in the trace header, so
    /// recording them too would double-inject on replay.
    FaultResend {
        ost: usize,
        rpc: Rpc,
    },
    /// A churned-offline process rejoins and resumes issuing.
    ProcResume {
        proc: usize,
    },
}

/// A cross-shard event in flight: buffered in the sender's outbox during
/// an epoch, delivered into the destination shard's queue at the barrier.
/// The canonical key makes delivery order irrelevant — the queue restores
/// the exact global `(time, key)` order.
struct Msg {
    at: SimTime,
    key: u64,
    event: Event,
}

/// Immutable run-wide context shared (read-only) by every shard.
struct Shared {
    policy: Policy,
    end: SimTime,
    network: NetworkConfig,
    stripe_count: usize,
    n_osts: usize,
    faults: FaultPlan,
    /// Crash-window routing over this wiring. The crash and recovery
    /// events carry the smallest keys at their instants, so at
    /// `t == from` every same-instant event already sees the window open,
    /// and at recovery already sees it closed.
    routing: Routing,
    /// `!faults.is_none()`, cached so fault-free runs pay a single cached
    /// bool test instead of walking the plan on every hot-path event.
    faults_active: bool,
    /// Replay mode: arrivals come from a trace, so there are no client
    /// processes and no reply path.
    replay: bool,
    /// The conservative lookahead `L`: minimum one-way network latency.
    lookahead: SimDuration,
    /// Per shard: whether it can ever send a cross-shard message (see
    /// [`compute_emits`]). Non-emitting shards never receive either, so
    /// they drain independently under [`WindowMode::Adaptive`].
    emits: Vec<bool>,
    /// OST → owning shard.
    ost_shard: Vec<u32>,
    /// OST → index within its shard.
    ost_local: Vec<u32>,
    /// Process → owning shard (the shard of its base OST).
    proc_shard: Vec<u32>,
    /// Process → index within its shard.
    proc_local: Vec<u32>,
}

impl Shared {
    /// The shard that must handle a (re)delivery addressed to `ost` at
    /// `at`: the survivor's shard when the crash window re-routes, the
    /// addressed OST's own shard when the RPC will park there. Senders
    /// call this at push time; the handling shard re-derives the identical
    /// route at delivery time (both are pure in `(ost, at, rpc)`).
    #[inline]
    fn dest_shard(&self, ost: usize, at: SimTime, rpc: &Rpc) -> usize {
        match self.routing.route(ost, rpc, at) {
            Route::Reroute(survivor) => self.ost_shard[survivor] as usize,
            Route::Local | Route::Park => self.ost_shard[ost] as usize,
        }
    }

    /// Canonical key lane of an OST.
    #[inline]
    fn ost_lane(&self, ost: usize) -> u64 {
        1 + ost as u64
    }

    /// Canonical key lane of a client process.
    #[inline]
    fn proc_lane(&self, proc: usize) -> u64 {
        1 + self.n_osts as u64 + proc as u64
    }
}

/// One shard: a contiguous range of OSTs, the processes based on them,
/// and a private event queue plus private metric/fault/loop accounting
/// (merged across shards at run end).
struct Shard {
    id: usize,
    queue: EventQueue<Event>,
    /// Global ids of the OSTs this shard owns (ascending).
    ost_ids: Vec<usize>,
    osts: Vec<OstState>,
    /// Per-OST reply-latency stream — separate from the OST's service
    /// stream so replay (which draws no replies) keeps service draws in
    /// sync with the recording.
    reply_rngs: Vec<SmallRng>,
    epochs: Vec<u32>,
    /// Per-OST-lane key sequence counters.
    ost_seq: Vec<u64>,
    /// Global ids of the processes this shard owns (ascending).
    proc_ids: Vec<usize>,
    procs: Vec<ProcessState>,
    /// Per-process forward-latency stream.
    proc_rngs: Vec<SmallRng>,
    /// Per-process dedup of pending churn-resume events.
    proc_resume: Vec<Option<SimTime>>,
    /// Per-proc-lane key sequence counters.
    proc_seq: Vec<u64>,
    metrics: Metrics,
    fault_stats: FaultStats,
    loop_stats: LoopStats,
    /// When `Some`, every OSS arrival is captured here with the event's
    /// canonical key, so per-shard captures merge back into the global
    /// processing order.
    recorder: Option<Vec<(u64, TraceRecord)>>,
    /// Scratch buffer for issued RPCs (reused across every `try_issue`).
    issue_scratch: Vec<Rpc>,
    /// Per-destination-shard buffers of cross-shard events produced this
    /// epoch.
    outbox: Vec<Vec<Msg>>,
    /// Earliest maturity (nanos) shipped cross-shard in the current
    /// window — `u64::MAX` when nothing has been emitted yet. Reset by
    /// [`Shard::run_capped`]; [`Shard::ship`] lowers it on every outbox
    /// push. A shard running past its peers' promises must stop at
    /// `min_shipped_ns + L`: a message it sends can wake a peer earlier
    /// than that peer's published next-event time, and the earliest
    /// reply that wake-up can produce matures one lookahead after it.
    min_shipped_ns: u64,
}

impl Shard {
    /// Next canonical key on a local OST's lane.
    #[inline]
    fn ost_key(&mut self, sh: &Shared, local: usize) -> u64 {
        let seq = self.ost_seq[local];
        self.ost_seq[local] += 1;
        (sh.ost_lane(self.ost_ids[local]) << LANE_SHIFT) | seq
    }

    /// Next canonical key on a local process's lane.
    #[inline]
    fn proc_key(&mut self, sh: &Shared, local: usize) -> u64 {
        let seq = self.proc_seq[local];
        self.proc_seq[local] += 1;
        (sh.proc_lane(self.proc_ids[local]) << LANE_SHIFT) | seq
    }

    /// Push locally or buffer for the owning shard.
    #[inline]
    fn ship(&mut self, dest: usize, at: SimTime, key: u64, event: Event) {
        if dest == self.id {
            self.queue.push_keyed(at, key, event);
        } else {
            self.outbox[dest].push(Msg { at, key, event });
            self.min_shipped_ns = self.min_shipped_ns.min(at.as_nanos());
        }
    }

    /// Deliver an epoch's incoming cross-shard events. Push order is
    /// irrelevant: the queue orders strictly by `(time, key)` and keys
    /// are globally unique.
    fn deliver_inbox(&mut self, inbox: &mut Vec<Msg>) {
        for m in inbox.drain(..) {
            self.queue.push_keyed(m.at, m.key, m.event);
        }
    }

    #[inline]
    fn note_pop(&mut self) {
        self.loop_stats.events += 1;
        let depth = self.queue.len() + 1;
        if depth > self.loop_stats.peak_queue_depth {
            self.loop_stats.peak_queue_depth = depth;
        }
    }

    /// Drain this shard to the horizon with no epoch windows — the
    /// independent mode for runs that provably generate no cross-shard
    /// traffic.
    fn drain(&mut self, sh: &Shared) {
        let end = sh.end;
        while let Some((now, key, event)) = self.queue.pop_entry_if(|t, _| t <= end) {
            self.note_pop();
            self.handle(sh, event, now, key);
        }
        debug_assert!(
            self.outbox.iter().all(|o| o.is_empty()),
            "independent shard produced cross-shard traffic"
        );
    }

    /// Process every event in the half-open epoch window
    /// `[·, window_end)`, clipped to the horizon.
    fn run_window(&mut self, sh: &Shared, window_end: SimTime) {
        let end = sh.end;
        while let Some((now, key, event)) =
            self.queue.pop_entry_if(|t, _| t < window_end && t <= end)
        {
            self.note_pop();
            self.handle(sh, event, now, key);
        }
    }

    /// Run a window bounded by the peers' promises **and** by this
    /// shard's own emissions: process events while
    /// `t < min(hard_bound, min_shipped + L)`, clipped to the horizon.
    ///
    /// The emission cap is what lets the minimum shard run past
    /// `t_min + L` safely. The peers' published next-event times promise
    /// nothing before `hard_bound = t_2nd + L` — but a message this shard
    /// ships at maturity `m < t_2nd` wakes its receiver early, and the
    /// receiver may answer as soon as `m + L`. Capping at
    /// `min_shipped + L` covers exactly that chain; since a maturity is
    /// at least one lookahead after the event that shipped it, the cap is
    /// always `≥ t_min + 2L` — never tighter than the fixed protocol's
    /// window. With `hard_bound == u64::MAX` this is the solo drain:
    /// free-running until one lookahead past the first actual emission.
    fn run_capped(&mut self, sh: &Shared, hard_bound_ns: u64) {
        let end = sh.end;
        let l = sh.lookahead.as_nanos();
        self.min_shipped_ns = u64::MAX;
        loop {
            let cap = hard_bound_ns.min(self.min_shipped_ns.saturating_add(l));
            let Some((now, key, event)) = self
                .queue
                .pop_entry_if(|t, _| t.as_nanos() < cap && t <= end)
            else {
                break;
            };
            self.note_pop();
            self.handle(sh, event, now, key);
        }
    }

    /// Tally displaced RPCs the horizon cut off: a `FaultResend` still
    /// queued past the end is an RPC the run ended too early to
    /// redeliver.
    fn count_undelivered_remainder(&mut self) {
        while let Some((_, event)) = self.queue.pop() {
            if matches!(event, Event::FaultResend { .. }) {
                self.fault_stats.undelivered += 1;
            }
        }
    }

    fn handle(&mut self, sh: &Shared, event: Event, now: SimTime, key: u64) {
        match event {
            Event::WorkArrival { proc, rpcs } => {
                let l = sh.proc_local[proc] as usize;
                self.procs[l].add_work(rpcs);
                self.try_issue(sh, proc, now);
            }
            Event::ArriveAtOss { ost, rpc } => {
                // Recorded with the *addressed* OST, before any crash
                // re-routing: replays re-inject exactly these arrivals and
                // re-derive the re-route from the fault plan in the header.
                if let Some(records) = self.recorder.as_mut() {
                    records.push((key, TraceRecord { at: now, ost, rpc }));
                }
                self.metrics.on_arrival(rpc.job, now);
                self.deliver(sh, ost, rpc, now, true);
            }
            Event::FaultResend { ost, rpc } => {
                // A client resend or redelivery: demand was counted at the
                // first arrival and the RPC is already counted displaced,
                // so only the OSS-side bookkeeping repeats.
                self.deliver(sh, ost, rpc, now, false);
            }
            Event::ServiceDone { ost, rpc, epoch } => {
                let l = sh.ost_local[ost] as usize;
                if sh.faults_active && epoch != self.epochs[l] {
                    // The thread serving this RPC died with the OST: the
                    // client never sees a reply and resends after its
                    // timeout. The timeout anchors at the *loss* — the
                    // crash instant — like the drained backlog's; the
                    // `max` guards a service so long it outlives the whole
                    // timeout, and floors the resend one network hop out
                    // (a resend crosses the wire, and cross-shard delivery
                    // requires the lookahead).
                    self.fault_stats.count_lost_in_service(1);
                    let crash = sh
                        .routing
                        .crash()
                        .expect("stale epoch implies a crash window");
                    let at = (crash.from + crash.resend_after).max(now + sh.lookahead);
                    let key = self.ost_key(sh, l);
                    let dest = sh.dest_shard(ost, at, &rpc);
                    self.ship(dest, at, key, Event::FaultResend { ost, rpc });
                    return;
                }
                self.osts[l].end_service(&rpc);
                self.metrics.on_served_at(rpc.job, now, rpc.issued_at);
                // In replay mode the trace is the client side: there is no
                // process to reply to (and no window to open).
                if !sh.replay {
                    let latency = draw_latency(&sh.network, &mut self.reply_rngs[l]);
                    let key = self.ost_key(sh, l);
                    let proc = rpc.proc_id.raw() as usize;
                    let dest = sh.proc_shard[proc] as usize;
                    self.ship(dest, now + latency, key, Event::ReplyAtClient { proc });
                }
                self.dispatch(sh, l, now);
            }
            Event::ThreadWake { ost, at } => {
                // Coalesce duplicate wakes for the same (ost, deadline)
                // queued back-to-back: only one can be live — the rest
                // would each fail the pending_wake check below anyway.
                while self
                    .queue
                    .pop_if(|t, e| {
                        t == now
                            && matches!(e, Event::ThreadWake { ost: o, at: a }
                                        if *o == ost && *a == at)
                    })
                    .is_some()
                {
                    self.loop_stats.events += 1;
                    self.loop_stats.coalesced += 1;
                }
                let l = sh.ost_local[ost] as usize;
                if self.osts[l].pending_wake == Some(at) {
                    self.osts[l].pending_wake = None;
                    self.dispatch(sh, l, now);
                }
                // Otherwise stale: a nearer wake superseded this one.
            }
            Event::ReplyAtClient { proc } => {
                // A service batch completing at one instant produces a run
                // of back-to-back replies to the same process; coalescing
                // them re-opens the whole window in one pass. Equivalent to
                // handling each reply alone: intermediate replies cannot
                // make the process quiescent (it still has outstanding
                // RPCs) and each opens at most one window slot, so the
                // batched issue emits the same RPCs in the same order with
                // the same RNG draws and event keys.
                let mut replies = 1u64;
                while self
                    .queue
                    .pop_if(|t, e| {
                        t == now && matches!(e, Event::ReplyAtClient { proc: p } if *p == proc)
                    })
                    .is_some()
                {
                    replies += 1;
                }
                self.loop_stats.events += replies - 1;
                self.loop_stats.coalesced += replies - 1;
                let l = sh.proc_local[proc] as usize;
                for _ in 0..replies {
                    self.procs[l].on_reply();
                }
                self.try_issue(sh, proc, now);
                // Closed-loop bursters release their next burst `think`
                // after the current one fully completes.
                if let Some((think, rpcs)) = self.procs[l].take_next_burst() {
                    let key = self.proc_key(sh, l);
                    self.queue
                        .push_keyed(now + think, key, Event::WorkArrival { proc, rpcs });
                }
            }
            Event::ControllerTick { ost } => {
                let l = sh.ost_local[ost] as usize;
                let crashed = sh.routing.crashed_at(ost, now);
                let ticked =
                    self.osts[l]
                        .node
                        .control_cycle(now, &sh.faults, crashed, &mut self.metrics);
                self.schedule_next_tick(sh, l, now);
                if ticked {
                    // Rates changed: throttled queues may now be servable.
                    self.dispatch(sh, l, now);
                }
            }
            Event::OstCrash { ost } => {
                // The OST dies: thread pool, token buckets, rules and job
                // stats all vanish (and the daemon's rule bookkeeping with
                // them); the drained backlog is what the clients resend
                // once their RPC timeout expires.
                let l = sh.ost_local[ost] as usize;
                self.epochs[l] += 1;
                let lost = self.osts[l].crash(&mut self.fault_stats);
                let crash = sh
                    .routing
                    .crash()
                    .expect("crash event implies a crash window");
                let resend_at = (now + crash.resend_after).max(now + sh.lookahead);
                for rpc in lost {
                    let key = self.ost_key(sh, l);
                    let dest = sh.dest_shard(ost, resend_at, &rpc);
                    self.ship(dest, resend_at, key, Event::FaultResend { ost, rpc });
                }
            }
            Event::OstRecover { ost } => {
                // Rejoin with empty bucket state. AdapTBF reinstalls rules
                // on its next control cycle; Static BW's fixed rules must
                // come back now or the policy would silently degrade to
                // No BW on this OST for the rest of the run (the node
                // knows its policy and reinstalls them itself).
                let l = sh.ost_local[ost] as usize;
                self.osts[l].node.recover(now);
                self.dispatch(sh, l, now);
            }
            Event::ProcResume { proc } => {
                let l = sh.proc_local[proc] as usize;
                self.proc_resume[l] = None;
                self.try_issue(sh, proc, now);
            }
        }
    }

    /// Land `rpc` on its addressed OST, re-routing around a crash window:
    /// the next surviving member of the issuing process's stripe set takes
    /// it immediately (Lustre clients redirect striped I/O once an OST is
    /// marked inactive); with no survivor the RPC parks and is redelivered
    /// the instant the OST rejoins. `first` marks a first-hand
    /// (client-originated) arrival: only those count toward the
    /// re-route/park statistics, so every displaced RPC lands in exactly
    /// one `FaultStats` category. The sender already routed the event to
    /// the shard owning the *final* destination (park target = the
    /// addressed OST), so the re-derived route always lands locally.
    fn deliver(&mut self, sh: &Shared, ost: usize, rpc: Rpc, now: SimTime, first: bool) {
        let route = if first {
            sh.routing
                .route_arrival(ost, &rpc, now, &mut self.fault_stats)
        } else {
            sh.routing.route(ost, &rpc, now)
        };
        let target = match route {
            Route::Local => ost,
            Route::Reroute(target) => target,
            Route::Park => {
                let recover = sh.routing.crash().expect("crash window is open");
                // The park target is the addressed OST itself, owned by
                // this shard — and at recovery it is healthy, so the
                // redelivery stays local.
                let l = sh.ost_local[ost] as usize;
                let key = self.ost_key(sh, l);
                self.queue.push_keyed(
                    recover.recovery_at().max(now),
                    key,
                    Event::FaultResend { ost, rpc },
                );
                return;
            }
        };
        debug_assert_eq!(
            sh.ost_shard[target] as usize, self.id,
            "sender misrouted an arrival"
        );
        let l = sh.ost_local[target] as usize;
        self.osts[l].node.admit(rpc, now);
        self.dispatch(sh, l, now);
    }

    /// Issue whatever the process's window allows and ship it northbound,
    /// striping sequential RPCs over `stripe_count` OSTs.
    fn try_issue(&mut self, sh: &Shared, proc: usize, now: SimTime) {
        let l = sh.proc_local[proc] as usize;
        if sh.faults_active {
            if let Some(until) = sh.faults.churn_offline_until(proc, now) {
                // Churned offline: work keeps accumulating client-side but
                // nothing is issued until the process rejoins. One resume
                // event per offline window.
                if self.proc_resume[l] != Some(until) {
                    self.proc_resume[l] = Some(until);
                    let key = self.proc_key(sh, l);
                    self.queue
                        .push_keyed(until, key, Event::ProcResume { proc });
                }
                return;
            }
        }
        let state = &mut self.procs[l];
        let base_ost = state.ost;
        let issued_before = state.issued;
        let mut rpcs = std::mem::take(&mut self.issue_scratch);
        rpcs.clear();
        state.issue_into(now, &mut rpcs);
        for (k, rpc) in rpcs.drain(..).enumerate() {
            let stripe = (issued_before as usize + k) % sh.stripe_count;
            let ost = (base_ost + stripe) % sh.n_osts;
            let latency = draw_latency(&sh.network, &mut self.proc_rngs[l]);
            let at = now + latency;
            let key = self.proc_key(sh, l);
            let dest = sh.dest_shard(ost, at, &rpc);
            self.ship(dest, at, key, Event::ArriveAtOss { ost, rpc });
        }
        self.issue_scratch = rpcs;
    }

    /// Hand work to idle I/O threads until the pool is busy or the
    /// scheduler has nothing servable.
    fn dispatch(&mut self, sh: &Shared, l: usize, now: SimTime) {
        let ost = self.ost_ids[l];
        if sh.routing.crashed_at(ost, now) {
            return;
        }
        while self.osts[l].has_idle_thread() {
            match self.osts[l].node.scheduler.next(now) {
                SchedDecision::Serve(rpc) => {
                    let health = if sh.faults_active {
                        sh.faults.disk_factor(now)
                    } else {
                        1.0
                    };
                    let service = self.osts[l].begin_service_degraded(&rpc, health);
                    let epoch = self.epochs[l];
                    let key = self.ost_key(sh, l);
                    self.queue.push_keyed(
                        now + service,
                        key,
                        Event::ServiceDone { ost, rpc, epoch },
                    );
                }
                SchedDecision::WaitUntil(deadline) => {
                    if self.osts[l].pending_wake.is_none_or(|w| deadline < w) {
                        self.osts[l].pending_wake = Some(deadline);
                        let key = self.ost_key(sh, l);
                        self.queue.push_keyed(
                            deadline,
                            key,
                            Event::ThreadWake { ost, at: deadline },
                        );
                    }
                    break;
                }
                SchedDecision::Idle => break,
            }
        }
    }

    fn schedule_next_tick(&mut self, sh: &Shared, l: usize, now: SimTime) {
        if let Policy::AdapTbf(acfg) = sh.policy {
            let next = now + acfg.period;
            if next <= sh.end {
                let ost = self.ost_ids[l];
                let key = self.ost_key(sh, l);
                self.queue
                    .push_keyed(next, key, Event::ControllerTick { ost });
            }
        }
    }
}

/// The assembled simulation, ready to [`Cluster::run`].
///
/// Internally a *blueprint*: global entity state plus the canonical
/// build-time event list. [`Cluster::run`] partitions it into
/// [`Cluster::shards`]-many shards and executes.
pub struct Cluster {
    policy: Policy,
    end: SimTime,
    bucket: SimDuration,
    n_jobs: usize,
    network: NetworkConfig,
    stripe_count: usize,
    faults: FaultPlan,
    replay: bool,
    seed: u64,
    procs: Vec<ProcessState>,
    osts: Vec<OstState>,
    /// Build-time events in canonical order: their keys are
    /// `(lane 0 << LANE_SHIFT) | position`.
    build_events: Vec<(SimTime, Event)>,
    /// `(job, released)` pairs applied — in order, later wins — to the
    /// merged metrics before completion reconstruction.
    released: Vec<(JobId, u64)>,
    /// Header for recorded traces (wiring + policy of this run).
    trace_meta: TraceMeta,
    /// Whether the recorder hook is enabled.
    record: bool,
    n_shards: usize,
    windows: WindowMode,
}

impl Cluster {
    /// Build a cluster for `scenario` under `policy` with the default
    /// testbed wiring.
    pub fn build(scenario: &Scenario, policy: Policy, seed: u64) -> Self {
        Self::build_with(scenario, policy, seed, ClusterConfig::default())
    }

    /// Build with explicit wiring.
    pub fn build_with(scenario: &Scenario, policy: Policy, seed: u64, cfg: ClusterConfig) -> Self {
        assert!(cfg.n_clients >= 1 && cfg.n_osts >= 1);
        assert!(
            cfg.stripe_count >= 1 && cfg.stripe_count <= cfg.n_osts,
            "stripe_count must be in 1..=n_osts"
        );
        Self::validate_faults(&cfg);
        let end = SimTime::ZERO + scenario.duration;
        let mut build_events = Vec::new();
        push_crash_events(&mut build_events, &cfg.faults);

        // Clients & processes: file-per-process, striped over clients and
        // OSTs exactly like the paper's 4-client testbed.
        let mut procs = Vec::new();
        let mut proc_chunks = Vec::new();
        let mut released: BTreeMap<JobId, u64> = BTreeMap::new();
        for job in &scenario.jobs {
            for spec in &job.processes {
                let idx = procs.len();
                let mut state = ProcessState::new(
                    job.id,
                    ProcId(idx as u32),
                    ClientId((idx % cfg.n_clients) as u32),
                    idx % cfg.n_osts,
                    spec.max_inflight,
                    cfg.ost.rpc_size,
                );
                let chunks = spec.pattern.arrivals(spec.file_rpcs, scenario.duration);
                if let Some(think) = spec.pattern.think_spec() {
                    // Closed-loop burster: follow-on bursts are released
                    // at run time.
                    let statically_released: u64 = chunks.iter().map(|c| c.rpcs).sum();
                    state.think = Some(think);
                    state.unreleased = spec.file_rpcs - statically_released;
                }
                // Completion-detection denominator — the shared accounting
                // (`ProcessSpec::released_within`) both executors use.
                *released.entry(job.id).or_insert(0) += spec.released_within(scenario.duration);
                procs.push(state);
                proc_chunks.push(chunks);
            }
        }
        for (idx, chunks) in proc_chunks.into_iter().enumerate() {
            for chunk in chunks {
                build_events.push((
                    chunk.at,
                    Event::WorkArrival {
                        proc: idx,
                        rpcs: chunk.rpcs,
                    },
                ));
            }
        }

        // OSTs and the control plane.
        let job_weights: Vec<(JobId, u64)> =
            scenario.jobs.iter().map(|j| (j.id, j.nodes)).collect();
        let mut osts = Self::control_plane(policy, &cfg, seed, &job_weights, &mut build_events);
        for ost in &mut osts {
            ost.reserve_jobs(scenario.jobs.len());
        }

        Cluster {
            policy,
            end,
            bucket: cfg.bucket,
            n_jobs: scenario.jobs.len(),
            network: cfg.network,
            stripe_count: cfg.stripe_count,
            faults: cfg.faults,
            replay: false,
            seed,
            procs,
            osts,
            build_events,
            released: released.into_iter().collect(),
            trace_meta: Self::trace_meta(&scenario.name, policy, seed, &cfg, job_weights),
            record: false,
            n_shards: default_shards(),
            windows: WindowMode::default(),
        }
    }

    /// Build a cluster that *replays* a recorded (or externally authored)
    /// trace: every recorded OSS arrival is re-injected at its recorded
    /// instant against its recorded OST, so the scheduler, controller and
    /// disk model face exactly the arrival sequence of the original run.
    /// There are no client processes in this mode (the trace *is* the
    /// client side).
    ///
    /// Replaying a recording with the same policy, seed and wiring as the
    /// recording reproduces its per-job served bytes exactly (asserted by
    /// `tests/trace_replay.rs`). A different policy/seed answers "what
    /// would this controller have done with that exact traffic?".
    pub fn build_replay(trace: &Trace, policy: Policy, seed: u64, cfg: ClusterConfig) -> Self {
        assert!(cfg.n_clients >= 1 && cfg.n_osts >= 1);
        assert!(
            cfg.stripe_count >= 1 && cfg.stripe_count <= cfg.n_osts,
            "stripe_count must be in 1..=n_osts"
        );
        assert!(
            cfg.n_osts >= trace.meta.n_osts,
            "replay wiring has {} OSTs but the trace targets {}",
            cfg.n_osts,
            trace.meta.n_osts
        );
        Self::validate_faults(&cfg);
        let end = SimTime::ZERO + trace.meta.duration;
        let mut build_events = Vec::new();
        push_crash_events(&mut build_events, &cfg.faults);
        // Released = what actually arrives during replay, so completion
        // detection and report tables stay meaningful.
        let mut released: Vec<(JobId, u64)> =
            trace.meta.jobs.iter().map(|&(job, _)| (job, 0)).collect();
        released.extend(trace.rpcs_per_job());
        for rec in &trace.records {
            build_events.push((
                rec.at,
                Event::ArriveAtOss {
                    ost: rec.ost,
                    rpc: rec.rpc,
                },
            ));
        }
        let mut osts = Self::control_plane(policy, &cfg, seed, &trace.meta.jobs, &mut build_events);
        for ost in &mut osts {
            ost.reserve_jobs(trace.meta.jobs.len());
        }
        Cluster {
            policy,
            end,
            bucket: cfg.bucket,
            n_jobs: trace.meta.jobs.len(),
            network: cfg.network,
            stripe_count: cfg.stripe_count,
            faults: cfg.faults,
            replay: true,
            seed,
            procs: Vec::new(),
            osts,
            build_events,
            released,
            trace_meta: Self::trace_meta(
                &trace.meta.scenario,
                policy,
                seed,
                &cfg,
                trace.meta.jobs.clone(),
            ),
            record: false,
            n_shards: default_shards(),
            windows: WindowMode::default(),
        }
    }

    /// Split the run over `n` event-loop shards (clamped to at least 1).
    ///
    /// Purely an execution parameter: reports, traces and digests are
    /// byte-identical for every shard count, so it never appears in
    /// `ClusterConfig` or trace headers. Defaults to the
    /// `ADAPTBF_SHARDS` environment variable (1 if unset), which lets
    /// whole test suites be re-run sharded without touching call sites.
    pub fn shards(mut self, n: usize) -> Self {
        self.n_shards = n.max(1);
        self
    }

    /// Select the epoch-window protocol (see [`WindowMode`]). Like the
    /// shard count, purely an execution parameter: results are
    /// byte-identical under either mode.
    pub fn windows(mut self, mode: WindowMode) -> Self {
        self.windows = mode;
        self
    }

    /// One assembled [`OstNode`] per OST for `policy`, shared by the
    /// scenario and replay builders. `jobs` carries `(id, nodes)` in
    /// declaration order (rule installation order matters for
    /// first-match-wins semantics). The node assembly itself — static rule
    /// resolution, controller wiring — is the engine-agnostic
    /// [`OstNode::new`] the live runtime uses too; only the tick
    /// *scheduling* is executor-specific (events here, wall-clock
    /// deadlines there).
    fn control_plane(
        policy: Policy,
        cfg: &ClusterConfig,
        seed: u64,
        jobs: &[(JobId, u64)],
        build_events: &mut Vec<(SimTime, Event)>,
    ) -> Vec<OstState> {
        let osts: Vec<OstState> = (0..cfg.n_osts)
            .map(|i| {
                let node =
                    OstNode::new(policy, cfg.tbf, jobs, cfg.static_rate_total, SimTime::ZERO);
                OstState::new(cfg.ost, node, seed ^ (0xD15C << 8) ^ i as u64)
            })
            .collect();
        if let Policy::AdapTbf(acfg) = policy {
            for i in 0..cfg.n_osts {
                build_events.push((
                    SimTime::ZERO + acfg.period,
                    Event::ControllerTick { ost: i },
                ));
            }
        }
        osts
    }

    /// Reject malformed fault plans at build time (the scenario-file
    /// surface reports the same conditions as parse errors).
    fn validate_faults(cfg: &ClusterConfig) {
        if let Err(e) = cfg.faults.validate() {
            panic!("invalid fault plan: {e}");
        }
        if let Some(crash) = cfg.faults.ost_crash {
            assert!(
                crash.ost < cfg.n_osts,
                "ost_crash.ost {} out of range (n_osts {})",
                crash.ost,
                cfg.n_osts
            );
        }
    }

    /// The header a recording of this run would carry.
    fn trace_meta(
        scenario: &str,
        policy: Policy,
        seed: u64,
        cfg: &ClusterConfig,
        jobs: Vec<(JobId, u64)>,
    ) -> TraceMeta {
        let period_ms = match policy {
            Policy::AdapTbf(acfg) => Some(acfg.period.as_nanos() / 1_000_000),
            _ => None,
        };
        TraceMeta {
            scenario: scenario.to_string(),
            seed,
            policy: policy.name().to_string(),
            period_ms,
            duration: SimDuration::ZERO, // patched with the horizon on output
            n_clients: cfg.n_clients,
            n_osts: cfg.n_osts,
            stripe_count: cfg.stripe_count,
            faults: cfg.faults,
            recorded_by: None,
            jobs,
        }
    }

    /// Execute the run to its horizon and return the collected metrics.
    pub fn run(self) -> RawRunOutput {
        self.execute().0
    }

    /// Execute the run with the recorder hook enabled: every OSS arrival
    /// is captured, and the run hands back the [`Trace`] alongside its
    /// metrics. Feed the trace to [`Cluster::build_replay`] (or serialize
    /// it with [`Trace::to_text`]).
    pub fn run_traced(mut self) -> (RawRunOutput, Trace) {
        self.record = true;
        let (out, trace) = self.execute();
        (out, trace.expect("recorder enabled"))
    }

    /// The policy governing this cluster.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Partition the blueprint into shards and run them to the horizon.
    fn execute(mut self) -> (RawRunOutput, Option<Trace>) {
        let record = self.record;
        let end = self.end;
        let released = std::mem::take(&mut self.released);
        let lookahead = min_latency(&self.network);
        // Which shards can ever touch cross-shard traffic? A static
        // analysis of the wiring (generalizing the old "replay or
        // stripe_count == 1" special case): shards with no boundary
        // stripe edge neither send nor receive and drain independently.
        // Shard counts beyond the OST count are allowed — the surplus
        // shards are simply empty (nothing routes to them).
        let mut n_shards = self.n_shards;
        let mut emits = compute_emits(
            n_shards,
            self.osts.len(),
            &self.procs,
            self.stripe_count,
            self.faults.ost_crash.is_some(),
        );
        // A coupled run with zero lookahead cannot make epoch progress;
        // degrade to one shard (plain drain) rather than livelock.
        if emits.iter().any(|&e| e) && lookahead == SimDuration::ZERO {
            n_shards = 1;
            emits = vec![false];
        }
        let trace_meta = self.trace_meta.clone();
        let bucket = self.bucket;
        let windows = self.windows;
        let (shared, mut shards) = self.partition(n_shards, lookahead, emits);

        let workers = crate::pool::worker_count();
        let epochs = if windows == WindowMode::Fixed && shared.emits.iter().any(|&e| e) {
            run_fixed(&shared, &mut shards, workers)
        } else {
            run_adaptive(&shared, &mut shards, workers)
        };
        if shared.faults_active {
            for shard in &mut shards {
                shard.count_undelivered_remainder();
            }
        }

        let (mut out, trace) = merge_outputs(shards, &released, end, bucket, trace_meta, record);
        out.loop_stats.epochs = epochs;
        (out, trace)
    }

    /// Distribute entities and build-time events over `n_shards` shards.
    /// OST ranges are contiguous (`s·n/N .. (s+1)·n/N`); each process
    /// lives with its base OST, so single-stripe traffic never leaves its
    /// shard. Entity seeds and key lanes use *global* indices — identical
    /// for every shard count.
    fn partition(
        mut self,
        n_shards: usize,
        lookahead: SimDuration,
        emits: Vec<bool>,
    ) -> (Shared, Vec<Shard>) {
        let n_osts = self.osts.len();
        let n_procs = self.procs.len();
        let ost_shard = ost_shard_map(n_osts, n_shards);
        let mut ost_local = vec![0u32; n_osts];
        let mut shard_osts: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (o, &s) in ost_shard.iter().enumerate() {
            let members = &mut shard_osts[s as usize];
            ost_local[o] = members.len() as u32;
            members.push(o);
        }
        let mut proc_shard = vec![0u32; n_procs];
        let mut proc_local = vec![0u32; n_procs];
        let mut shard_procs: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for p in 0..n_procs {
            let s = ost_shard[self.procs[p].ost] as usize;
            proc_shard[p] = s as u32;
            proc_local[p] = shard_procs[s].len() as u32;
            shard_procs[s].push(p);
        }

        let shared = Shared {
            policy: self.policy,
            end: self.end,
            network: self.network,
            stripe_count: self.stripe_count,
            n_osts,
            faults: self.faults,
            routing: Routing::new(&self.faults, n_osts, self.stripe_count),
            faults_active: !self.faults.is_none(),
            replay: self.replay,
            lookahead,
            emits,
            ost_shard,
            ost_local,
            proc_shard,
            proc_local,
        };

        // Route every build-time event once, up front: the per-shard
        // totals pre-size each shard's calendar spill heap exactly (the
        // build list *is* the far-future population — run-time pushes are
        // near-cursor), and the routes are reused by the push loop below.
        let build_events = std::mem::take(&mut self.build_events);
        let mut shard_load = vec![0usize; n_shards];
        let dests: Vec<u32> = build_events
            .iter()
            .map(|(at, ev)| {
                let dest = match ev {
                    Event::OstCrash { ost }
                    | Event::OstRecover { ost }
                    | Event::ControllerTick { ost } => shared.ost_shard[*ost] as usize,
                    Event::WorkArrival { proc, .. } => shared.proc_shard[*proc] as usize,
                    Event::ArriveAtOss { ost, rpc } => shared.dest_shard(*ost, *at, rpc),
                    _ => unreachable!("only build-time events appear here"),
                };
                shard_load[dest] += 1;
                dest as u32
            })
            .collect();

        let mut osts: Vec<Option<OstState>> = self.osts.into_iter().map(Some).collect();
        let mut procs: Vec<Option<ProcessState>> = self.procs.into_iter().map(Some).collect();
        let seed = self.seed;
        let mut shards: Vec<Shard> = (0..n_shards)
            .map(|s| {
                let ost_ids = std::mem::take(&mut shard_osts[s]);
                let proc_ids = std::mem::take(&mut shard_procs[s]);
                let mut metrics = Metrics::new(self.bucket);
                metrics.reserve_jobs(self.n_jobs);
                let mut queue = EventQueue::new();
                queue.reserve(shard_load[s] + 2 * ost_ids.len() + 16);
                Shard {
                    id: s,
                    queue,
                    osts: ost_ids
                        .iter()
                        .map(|&o| osts[o].take().expect("each OST joins one shard"))
                        .collect(),
                    reply_rngs: ost_ids
                        .iter()
                        .map(|&o| SmallRng::seed_from_u64(seed ^ (0x2E70 << 16) ^ o as u64))
                        .collect(),
                    epochs: vec![0; ost_ids.len()],
                    ost_seq: vec![0; ost_ids.len()],
                    procs: proc_ids
                        .iter()
                        .map(|&p| procs[p].take().expect("each proc joins one shard"))
                        .collect(),
                    proc_rngs: proc_ids
                        .iter()
                        .map(|&p| SmallRng::seed_from_u64(seed ^ (0x2E70 << 32) ^ p as u64))
                        .collect(),
                    proc_resume: vec![None; proc_ids.len()],
                    proc_seq: vec![0; proc_ids.len()],
                    ost_ids,
                    proc_ids,
                    metrics,
                    fault_stats: FaultStats::default(),
                    loop_stats: LoopStats::default(),
                    recorder: self.record.then(Vec::new),
                    issue_scratch: Vec::with_capacity(32),
                    outbox: (0..n_shards).map(|_| Vec::new()).collect(),
                    min_shipped_ns: u64::MAX,
                }
            })
            .collect();

        // Build-time events ride lane 0 with their position as the
        // sequence — the canonical order the single-queue builder pushed
        // them in, regardless of which shard queue each lands in.
        for (build_seq, ((at, ev), dest)) in build_events.into_iter().zip(dests).enumerate() {
            shards[dest as usize]
                .queue
                .push_keyed(at, build_seq as u64, ev);
        }
        (shared, shards)
    }
}

/// OST → owning shard for the contiguous partition
/// (`s·n/N .. (s+1)·n/N`). Shared by [`Cluster::partition`] and the
/// pre-partition [`compute_emits`] analysis so both see the same map.
fn ost_shard_map(n_osts: usize, n_shards: usize) -> Vec<u32> {
    let mut ost_shard = vec![0u32; n_osts];
    for s in 0..n_shards {
        let lo = s * n_osts / n_shards;
        let hi = (s + 1) * n_osts / n_shards;
        for slot in &mut ost_shard[lo..hi] {
            *slot = s as u32;
        }
    }
    ost_shard
}

/// Which shards can ever *send* a cross-shard message — a static analysis
/// of the wiring, run before partitioning:
///
/// - A crash window can re-route or resend anything across any boundary;
///   with one in the plan, every shard conservatively emits.
/// - Otherwise the only cross-shard edges are a process's stripe set
///   crossing its own shard's OST range: arrivals go process→OST, replies
///   OST→process, so *both* endpoint shards are marked.
///
/// The dual property makes this load-bearing for the solo fast path: a
/// non-emitting shard never **receives** either. Every receiver is an
/// emitter — an arrival-receiving OST shard answers with a cross-shard
/// reply, a reply-receiving process shard owns the boundary stripe that
/// caused it, and fault paths imply the all-emit case. Replay wirings
/// have no processes (and no reply path), so without a crash nothing
/// emits — the old "replay or stripe_count == 1 ⇒ independent" special
/// case falls out of this analysis as the all-false row.
fn compute_emits(
    n_shards: usize,
    n_osts: usize,
    procs: &[ProcessState],
    stripe_count: usize,
    crash_possible: bool,
) -> Vec<bool> {
    if n_shards <= 1 {
        return vec![false; n_shards];
    }
    if crash_possible {
        return vec![true; n_shards];
    }
    let ost_shard = ost_shard_map(n_osts, n_shards);
    let mut emits = vec![false; n_shards];
    for proc in procs {
        let ps = ost_shard[proc.ost] as usize;
        for k in 0..stripe_count {
            let os = ost_shard[(proc.ost + k) % n_osts] as usize;
            if os != ps {
                emits[ps] = true;
                emits[os] = true;
            }
        }
    }
    emits
}

/// The adaptive-window protocol (see the module docs) — the one driver for
/// every run but a coupled [`WindowMode::Fixed`] one. Splits the shards by
/// the emits analysis — the non-emitting ones drain independently — and
/// runs epochs over the emitting rest, if any:
///
/// ```text
/// loop:
///   1. every shard that ran or received last epoch re-publishes its
///      next-event time t_i (idle shards keep their published value)
///   2. barrier A (pool) / heap refresh (sequential)
///   3. t_min, t_2nd := two smallest published times; stop if none or
///      past the horizon
///   4. the t_min shard runs [·, t_2nd + L), additionally capped one
///      lookahead past its own earliest emission ([`Shard::run_capped`]);
///      everyone else runs [·, t_min + L). With no second shard holding
///      events the t_min shard's hard bound is open: it drains solo
///      until one lookahead past its first actual emission.
///   5. outboxes flush into destination inboxes (receivers marked dirty)
///   6. barrier B (pool only)
/// ```
///
/// **Safety.** A shard processing events below its bound can only be
/// wrong if a message it has not seen matures below that bound. Any
/// message sent this epoch by shard `j` matures at
/// `≥ t_j + L = eot_j ≥` the receiver's bound: for a non-minimum shard
/// the bound is `t_min + L ≤ eot_j` for every `j`; for the minimum shard
/// the bound is the minimum `eot` over the *other* shards. A published
/// time only promises that epoch's outputs, though — a message the
/// minimum shard ships at maturity `m < t_2nd` wakes its receiver ahead
/// of the receiver's published time, and the earliest answer that
/// wake-up can produce matures at `m + L`, possibly below `t_2nd + L`.
/// The emission cap closes exactly that chain: the minimum shard never
/// runs past `min_shipped + L`, so every answer to anything it sent is
/// still ahead of it. The solo case is the same bound with an empty peer
/// minimum (`∞`), leaving only the cap. Messages are delivered at the
/// *next* refresh, which is safe for the same reason: they mature at or
/// past the receiver's current bound.
///
/// Every worker decides from the same published snapshot, so run sets,
/// stop decisions, and all [`LoopStats`] counters are identical for any
/// worker count — and identical to the sequential driver's.
fn run_adaptive(shared: &Shared, shards: &mut [Shard], workers: usize) -> u64 {
    let n_shards = shards.len();
    let (mut coupled, mut free): (Vec<&mut Shard>, Vec<&mut Shard>) =
        shards.iter_mut().partition(|s| shared.emits[s.id]);
    let mut local_of = vec![usize::MAX; n_shards];
    for (i, shard) in coupled.iter().enumerate() {
        local_of[shard.id] = i;
    }
    if workers.min(coupled.len().max(free.len())) <= 1 {
        for shard in free.iter_mut() {
            shard.drain(shared);
        }
        run_epochs_seq(shared, &mut coupled, &local_of)
    } else {
        run_pool(shared, &mut free, &mut coupled, &local_of, workers)
    }
}

/// Run one emitting shard's epoch share: its window (or solo drain when
/// the bound is open), then flush its outboxes and mark the receivers
/// dirty. Sequential-driver half of the protocol step 4–5.
fn run_one(
    shared: &Shared,
    shard: &mut Shard,
    bound_ns: u64,
    inboxes: &mut [Vec<Msg>],
    dirty: &mut [bool],
    local_of: &[usize],
) {
    if bound_ns == u64::MAX {
        shard.loop_stats.solo_drains += 1;
    }
    shard.run_capped(shared, bound_ns);
    for dest in 0..shard.outbox.len() {
        if !shard.outbox[dest].is_empty() {
            shard.loop_stats.inbox_flushes += 1;
            inboxes[dest].append(&mut shard.outbox[dest]);
            debug_assert_ne!(local_of[dest], usize::MAX, "receivers are emitters");
            dirty[local_of[dest]] = true;
        }
    }
}

/// Sequential adaptive driver: a [`ShardHeap`] over published next-event
/// times schedules only the shards with work below their bound — idle
/// shards are never touched, not even for a queue peek.
fn run_epochs_seq(shared: &Shared, coupled: &mut [&mut Shard], local_of: &[usize]) -> u64 {
    let m = coupled.len();
    if m == 0 {
        return 0;
    }
    let end_ns = shared.end.as_nanos();
    let l = shared.lookahead.as_nanos();
    // Inboxes are indexed by *global* shard id (flushes address them
    // directly); only emitting slots are ever used.
    let mut inboxes: Vec<Vec<Msg>> = (0..local_of.len()).map(|_| Vec::new()).collect();
    let mut heap = ShardHeap::new(m);
    let mut dirty = vec![true; m];
    let mut stamp = vec![0u64; m];
    let mut epochs = 0u64;
    loop {
        for (i, shard) in coupled.iter_mut().enumerate() {
            if std::mem::take(&mut dirty[i]) {
                let id = shard.id;
                shard.deliver_inbox(&mut inboxes[id]);
                heap.update(i, shard.queue.peek_at().map_or(u64::MAX, |t| t.as_nanos()));
            }
        }
        let (t_min, owner) = heap.min();
        if t_min == u64::MAX || t_min > end_ns {
            break;
        }
        epochs += 1;
        let eo1 = t_min.saturating_add(l);
        let eo2 = heap.second_min().saturating_add(l);
        // The t_min shard always runs; its own promise is `eo1`, so its
        // bound is the second-best promise `eo2` (MAX ⇒ solo).
        run_one(
            shared,
            coupled[owner],
            eo2,
            &mut inboxes,
            &mut dirty,
            local_of,
        );
        stamp[owner] = epochs;
        heap.update(
            owner,
            coupled[owner]
                .queue
                .peek_at()
                .map_or(u64::MAX, |t| t.as_nanos()),
        );
        // Everyone else below the shared bound `eo1`, in heap order. The
        // stamp stops a solo-drained owner from re-running this epoch —
        // its emission must first reach the receiver at the next refresh.
        loop {
            let (t, i) = heap.min();
            if t >= eo1 || t > end_ns || stamp[i] == epochs {
                break;
            }
            run_one(shared, coupled[i], eo1, &mut inboxes, &mut dirty, local_of);
            stamp[i] = epochs;
            heap.update(
                i,
                coupled[i]
                    .queue
                    .peek_at()
                    .map_or(u64::MAX, |t| t.as_nanos()),
            );
        }
    }
    epochs
}

/// Threaded adaptive driver: one **persistent pool** — spawned once per
/// run, sized by the larger of the emitting and independent sets — where
/// every worker first drains its share of the independent shards, then
/// the workers holding emitting shards run the epoch protocol over their
/// share, synchronized by a [`SpinBarrier`] (two waits per epoch, no
/// parking, no re-spawn).
fn run_pool(
    shared: &Shared,
    free: &mut [&mut Shard],
    coupled: &mut [&mut Shard],
    local_of: &[usize],
    workers: usize,
) -> u64 {
    let m = coupled.len();
    let spawned = workers.min(m.max(free.len())).max(1);
    let chunk = m.div_ceil(spawned).max(1);
    let free_chunk = free.len().div_ceil(spawned).max(1);
    // All shared state is indexed by the shard's *local* (coupled) index.
    let published: Vec<AtomicU64> = (0..m).map(|_| AtomicU64::new(u64::MAX)).collect();
    let dirty: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(false)).collect();
    let inboxes: Vec<Mutex<Vec<Msg>>> = (0..m).map(|_| Mutex::new(Vec::new())).collect();
    // Only the workers holding emitting shards meet at the barrier.
    let barrier = SpinBarrier::new(m.div_ceil(chunk));
    let epochs = AtomicU64::new(0);
    let (published, dirty, inboxes, barrier, epochs) =
        (&published, &dirty, &inboxes, &barrier, &epochs);
    std::thread::scope(|scope| {
        let mut free_rest = free;
        let mut rest = coupled;
        let mut base = 0usize;
        for _ in 0..spawned {
            // Split lengths are read before `take` empties the slices.
            let take_free = free_chunk.min(free_rest.len());
            let (fg, fr) = std::mem::take(&mut free_rest).split_at_mut(take_free);
            free_rest = fr;
            let take = chunk.min(rest.len());
            let (group, cr) = std::mem::take(&mut rest).split_at_mut(take);
            rest = cr;
            let my_base = base;
            base += take;
            scope.spawn(move || {
                pool_worker(
                    shared, fg, group, my_base, published, dirty, inboxes, local_of, barrier,
                    epochs,
                );
            });
        }
    });
    epochs.load(Ordering::Relaxed)
}

/// One pool worker's whole run (see [`run_pool`] and the protocol sketch
/// on [`run_adaptive`]).
#[allow(clippy::too_many_arguments)]
fn pool_worker(
    shared: &Shared,
    free: &mut [&mut Shard],
    mine: &mut [&mut Shard],
    base: usize,
    published: &[AtomicU64],
    dirty: &[AtomicBool],
    inboxes: &[Mutex<Vec<Msg>>],
    local_of: &[usize],
    barrier: &SpinBarrier,
    epochs: &AtomicU64,
) {
    let end_ns = shared.end.as_nanos();
    let l = shared.lookahead.as_nanos();
    let mut sense = false;
    // Phase 0: this worker's share of the independent shards — the pool
    // serves both phases; no barrier needed, the shards share nothing.
    for shard in free.iter_mut() {
        shard.drain(shared);
    }
    if mine.is_empty() {
        return;
    }
    let mut ran: Vec<bool> = vec![true; mine.len()]; // force the initial publish
    let mut scratch: Vec<Msg> = Vec::new();
    let mut n_epochs = 0u64;
    loop {
        // Refresh: deliver pending inboxes and re-publish next-event
        // times — only for shards that ran or received since their last
        // publish; idle shards stay untouched.
        for (k, shard) in mine.iter_mut().enumerate() {
            let li = base + k;
            let received = dirty[li].swap(false, Ordering::AcqRel);
            if received {
                // Swap the batch out under the lock, deliver outside it.
                {
                    let mut inbox = inboxes[li].lock().expect("inbox lock");
                    std::mem::swap(&mut *inbox, &mut scratch);
                }
                shard.deliver_inbox(&mut scratch);
            }
            if received || ran[k] {
                let t = shard.queue.peek_at().map_or(u64::MAX, |t| t.as_nanos());
                published[li].store(t, Ordering::Release);
                ran[k] = false;
            }
        }
        barrier.wait(&mut sense);
        // Every worker reads the same snapshot: same owner, same bounds,
        // same stop decision.
        let mut t_min = u64::MAX;
        let mut owner = usize::MAX;
        let mut second = u64::MAX;
        for (li, slot) in published.iter().enumerate() {
            let t = slot.load(Ordering::Acquire);
            if t < t_min {
                second = t_min;
                t_min = t;
                owner = li;
            } else if t < second {
                second = t;
            }
        }
        if t_min == u64::MAX || t_min > end_ns {
            break;
        }
        n_epochs += 1;
        let eo1 = t_min.saturating_add(l);
        let eo2 = second.saturating_add(l);
        for (k, shard) in mine.iter_mut().enumerate() {
            let li = base + k;
            if li == owner {
                if eo2 == u64::MAX {
                    shard.loop_stats.solo_drains += 1;
                }
                shard.run_capped(shared, eo2);
            } else {
                let t = published[li].load(Ordering::Relaxed);
                if t >= eo1 || t > end_ns {
                    continue;
                }
                shard.run_capped(shared, eo1);
            }
            ran[k] = true;
            for (dest, outbox) in shard.outbox.iter_mut().enumerate() {
                if !outbox.is_empty() {
                    shard.loop_stats.inbox_flushes += 1;
                    debug_assert_ne!(local_of[dest], usize::MAX, "receivers are emitters");
                    let ld = local_of[dest];
                    let mut sink = inboxes[ld].lock().expect("inbox lock");
                    sink.append(outbox);
                    drop(sink);
                    dirty[ld].store(true, Ordering::Release);
                }
            }
        }
        barrier.wait(&mut sense);
    }
    if base == 0 {
        // Every worker counted the same epochs; one reports.
        epochs.store(n_epochs, Ordering::Relaxed);
    }
}

/// The original conservative protocol, kept verbatim as the reference
/// oracle for [`WindowMode::Fixed`]:
///
/// ```text
/// loop:
///   1. each shard drains its inbox into its queue
///   2. each shard publishes its next-event time
///   3. barrier A — all published
///   4. t_min := min over all shards; stop if none or past the horizon
///   5. each shard processes its events in [t_min, t_min + L)
///   6. each shard flushes its outboxes into destination inboxes
///   7. barrier B — all flushed
/// ```
///
/// Any message sent while processing the window lands at ≥ sender_now + L
/// ≥ t_min + L — outside the window — so no shard can miss an incoming
/// event it should have processed this epoch; the lookahead floor on
/// client resends preserves this for fault redeliveries too. Every worker
/// computes the stop decision from the same published snapshot, so all
/// exit on the same epoch.
fn run_fixed(shared: &Shared, shards: &mut [Shard], workers: usize) -> u64 {
    let n = shards.len();
    let end_ns = shared.end.as_nanos();
    let workers = workers.min(n).max(1);
    if workers <= 1 {
        let mut inboxes: Vec<Vec<Msg>> = (0..n).map(|_| Vec::new()).collect();
        let mut epochs = 0u64;
        loop {
            let mut t_min = u64::MAX;
            for (shard, inbox) in shards.iter_mut().zip(&mut inboxes) {
                shard.deliver_inbox(inbox);
                if let Some(t) = shard.queue.peek_at() {
                    t_min = t_min.min(t.as_nanos());
                }
            }
            if t_min == u64::MAX || t_min > end_ns {
                break;
            }
            epochs += 1;
            let window_end = SimTime(t_min) + shared.lookahead;
            for shard in shards.iter_mut() {
                shard.run_window(shared, window_end);
                for (dest, inbox) in inboxes.iter_mut().enumerate() {
                    if !shard.outbox[dest].is_empty() {
                        shard.loop_stats.inbox_flushes += 1;
                        inbox.append(&mut shard.outbox[dest]);
                    }
                }
            }
        }
        return epochs;
    }

    let inboxes: Vec<Mutex<Vec<Msg>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let next_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let chunk = n.div_ceil(workers);
    let spawned = shards.len().div_ceil(chunk);
    let barrier = Barrier::new(spawned);
    let epochs = AtomicU64::new(0);
    let inboxes = &inboxes;
    let next_at = &next_at;
    let barrier = &barrier;
    let epochs_ref = &epochs;
    std::thread::scope(|scope| {
        for (w, group) in shards.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                let mut n_epochs = 0u64;
                loop {
                    for shard in group.iter_mut() {
                        let mut inbox = inboxes[shard.id].lock().expect("inbox lock");
                        shard.deliver_inbox(&mut inbox);
                        drop(inbox);
                        let t = shard.queue.peek_at().map_or(u64::MAX, |t| t.as_nanos());
                        next_at[shard.id].store(t, Ordering::Release);
                    }
                    barrier.wait();
                    let t_min = next_at
                        .iter()
                        .map(|a| a.load(Ordering::Acquire))
                        .min()
                        .expect("at least one shard");
                    if t_min == u64::MAX || t_min > end_ns {
                        break;
                    }
                    n_epochs += 1;
                    let window_end = SimTime(t_min) + shared.lookahead;
                    for shard in group.iter_mut() {
                        shard.run_window(shared, window_end);
                        for (dest, inbox) in inboxes.iter().enumerate() {
                            if !shard.outbox[dest].is_empty() {
                                shard.loop_stats.inbox_flushes += 1;
                                let mut sink = inbox.lock().expect("inbox lock");
                                sink.append(&mut shard.outbox[dest]);
                            }
                        }
                    }
                    barrier.wait();
                }
                if w == 0 {
                    epochs_ref.store(n_epochs, Ordering::Relaxed);
                }
            });
        }
    });
    epochs.load(Ordering::Relaxed)
}

/// Fold per-shard outputs into the run result, in ascending shard order
/// (the gauge-merge contract of [`Metrics::absorb`]).
fn merge_outputs(
    shards: Vec<Shard>,
    released: &[(JobId, u64)],
    end: SimTime,
    bucket: SimDuration,
    mut trace_meta: TraceMeta,
    record: bool,
) -> (RawRunOutput, Option<Trace>) {
    let mut metrics = Metrics::new(bucket);
    let mut fault_stats = FaultStats::default();
    let mut loop_stats = LoopStats::default();
    let mut overheads: Vec<(usize, ControllerOverhead)> = Vec::new();
    let mut records: Vec<(u64, TraceRecord)> = Vec::new();
    for mut shard in shards {
        metrics.absorb(&shard.metrics);
        fault_stats.absorb(&shard.fault_stats);
        loop_stats.absorb(&shard.loop_stats);
        for (l, ost) in shard.osts.iter().enumerate() {
            if let Some(o) = ost.node.overhead() {
                overheads.push((shard.ost_ids[l], o));
            }
        }
        if let Some(mut recs) = shard.recorder.take() {
            records.append(&mut recs);
        }
    }
    debug_assert!(
        fault_stats.partition_holds(),
        "fault accounting leaked: {fault_stats:?}"
    );
    for &(job, total) in released {
        metrics.set_released(job, total);
    }
    metrics.rebuild_completions();
    metrics.finalize(end);
    overheads.sort_unstable_by_key(|&(ost, _)| ost);
    // Global processing order is the (time, key) total order — restore it
    // across per-shard capture logs.
    records.sort_unstable_by_key(|&(key, ref r)| (r.at, key));
    trace_meta.duration = end.since(SimTime::ZERO);
    let trace = record.then(|| Trace {
        meta: trace_meta,
        records: records.into_iter().map(|(_, rec)| rec).collect(),
    });
    (
        RawRunOutput {
            metrics,
            overheads: overheads.into_iter().map(|(_, o)| o).collect(),
            end,
            loop_stats,
            fault_stats,
        },
        trace,
    )
}

/// Schedule the fault plan's crash/recovery pair. First in the build
/// list, so their lane-0 keys are the smallest of the run: at identical
/// timestamps the window flips *before* same-instant arrivals are
/// delivered — in the recording and in every replay alike.
fn push_crash_events(build_events: &mut Vec<(SimTime, Event)>, faults: &FaultPlan) {
    if let Some(crash) = faults.ost_crash {
        build_events.push((crash.from, Event::OstCrash { ost: crash.ost }));
        build_events.push((crash.recovery_at(), Event::OstRecover { ost: crash.ost }));
    }
}

/// Default shard count: `ADAPTBF_SHARDS` if set, else 1. An execution
/// parameter, not wiring — see [`Cluster::shards`].
fn default_shards() -> usize {
    std::env::var("ADAPTBF_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}
#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::JobId;
    use adaptbf_workload::{JobSpec, ProcessSpec};

    fn tiny_scenario() -> Scenario {
        Scenario::new(
            "tiny",
            "two jobs, equal priority",
            vec![
                JobSpec::uniform(JobId(1), 1, 2, ProcessSpec::continuous(50)),
                JobSpec::uniform(JobId(2), 1, 2, ProcessSpec::continuous(50)),
            ],
            SimDuration::from_secs(3),
        )
    }

    #[test]
    fn no_bw_serves_all_work() {
        let out = Cluster::build(&tiny_scenario(), Policy::NoBw, 1).run();
        assert_eq!(out.metrics.total_served(), 200, "all 200 RPCs served");
        assert_eq!(out.metrics.completion_time().len(), 2);
        assert!(out.metrics.completion_of(JobId(1)).is_some());
        assert!(out.overheads.is_empty());
        let stats = out.loop_stats;
        assert!(stats.events > 400, "every RPC crosses several events");
        assert!(stats.peak_queue_depth > 0);
    }

    #[test]
    fn adaptbf_serves_all_work_and_reports_overhead() {
        let out = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 1).run();
        assert_eq!(out.metrics.total_served(), 200);
        assert_eq!(out.overheads.len(), 1);
        assert!(out.overheads[0].ticks > 10, "a tick every 100 ms");
    }

    #[test]
    fn static_bw_respects_rates() {
        // Job 1 alone at 50% → 500 tps static cap. 100 RPCs take ≥ 200 ms
        // even though the disk could do them in ~100 ms.
        let scenario = Scenario::new(
            "static",
            "",
            vec![
                JobSpec::uniform(JobId(1), 1, 4, ProcessSpec::continuous(25)),
                JobSpec::uniform(JobId(2), 1, 1, ProcessSpec::continuous(1)),
            ],
            SimDuration::from_secs(2),
        );
        let out = Cluster::build(&scenario, Policy::StaticBw, 1).run();
        let done = out.metrics.completion_of(JobId(1)).expect("finishes");
        assert!(
            done >= SimTime::from_millis(190),
            "static 500 tps cap must stretch 100 RPCs to ≈200 ms, got {done}"
        );
        assert_eq!(out.metrics.total_served(), 101);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 42).run();
        let b = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 42).run();
        assert_eq!(a.metrics.served_by_job(), b.metrics.served_by_job());
        assert_eq!(a.metrics.served(), b.metrics.served());
        let c = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 43).run();
        // Different seed: still all served, timeline may differ.
        assert_eq!(c.metrics.total_served(), 200);
    }

    #[test]
    fn replay_reproduces_recorded_run_exactly() {
        for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
            let (out, trace) = Cluster::build(&tiny_scenario(), policy, 9).run_traced();
            assert_eq!(trace.records.len(), 200, "every RPC recorded");
            let replayed = Cluster::build_replay(&trace, policy, 9, ClusterConfig::default()).run();
            assert_eq!(
                out.metrics.served_by_job(),
                replayed.metrics.served_by_job(),
                "replay diverged under {}",
                policy.name()
            );
            assert_eq!(out.metrics.served(), replayed.metrics.served());
        }
    }

    #[test]
    fn recorded_trace_round_trips_through_text() {
        let (_, trace) =
            Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 5).run_traced();
        let text = trace.to_text();
        let parsed = adaptbf_workload::trace::Trace::from_text(&text).expect("parses");
        assert_eq!(parsed, trace);
    }

    fn crash_faults(ost: usize, from_ms: u64, for_ms: u64) -> FaultPlan {
        FaultPlan {
            ost_crash: Some(adaptbf_workload::CrashSpec {
                ost,
                from: SimTime::from_millis(from_ms),
                for_: SimDuration::from_millis(for_ms),
                resend_after: SimDuration::from_millis(50),
            }),
            ..FaultPlan::none()
        }
    }

    #[test]
    fn ost_crash_on_striped_pair_loses_no_work() {
        let cfg = ClusterConfig {
            n_osts: 2,
            stripe_count: 2,
            faults: crash_faults(1, 20, 150),
            ..Default::default()
        };
        for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
            let out = Cluster::build_with(&tiny_scenario(), policy, 3, cfg).run();
            assert_eq!(
                out.metrics.total_served(),
                200,
                "every RPC survives the failover under {}",
                policy.name()
            );
            let fs = out.fault_stats;
            assert!(
                fs.resent + fs.rerouted > 0,
                "the crash window must actually displace traffic: {fs:?}"
            );
            assert!(fs.lost_in_service <= fs.resent);
        }
    }

    #[test]
    fn single_ost_crash_parks_arrivals_until_recovery() {
        let cfg = ClusterConfig {
            faults: crash_faults(0, 50, 200),
            ..Default::default()
        };
        let out = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 3, cfg).run();
        assert_eq!(
            out.metrics.total_served(),
            200,
            "no survivor ⇒ park or resend, never drop"
        );
        let fs = out.fault_stats;
        assert!(fs.resent > 0, "{fs:?}");
        assert_eq!(fs.rerouted, 0, "nowhere to re-route to: {fs:?}");
        assert_eq!(fs.undelivered, 0, "everything redelivered in time: {fs:?}");
    }

    #[test]
    fn resends_cut_off_by_the_horizon_are_counted_undelivered() {
        // The crash opens mid-run but the resend timeout stretches past
        // the horizon: displaced RPCs cannot be redelivered in time. They
        // must not vanish from the books — `undelivered` owns them.
        let cfg = ClusterConfig {
            faults: FaultPlan {
                ost_crash: Some(adaptbf_workload::CrashSpec {
                    ost: 0,
                    from: SimTime::from_millis(100),
                    for_: SimDuration::from_millis(200),
                    resend_after: SimDuration::from_secs(10),
                }),
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let out = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 3, cfg).run();
        let fs = out.fault_stats;
        assert!(
            fs.undelivered > 0,
            "cut-off resends must be tallied: {fs:?}"
        );
        assert_eq!(
            fs.undelivered, fs.resent,
            "a 10s timeout strands every resend of this run: {fs:?}"
        );
        // The undelivered RPCs also pin their client window slots, so some
        // backlog stays unissued — but nothing is unaccounted: whatever is
        // not served is either an undelivered resend or still client-side.
        let served = out.metrics.total_served();
        assert!(served < 200, "the stranded resends cannot have been served");
        assert!(
            served + fs.undelivered <= 200,
            "no RPC is both served and undelivered: {fs:?}"
        );
    }

    #[test]
    fn reroute_stays_within_the_stripe_set() {
        // 4 OSTs but stripe width 1: the single process's file lives on
        // OST 0 only. When OST 0 crashes there is no *stripe member* to
        // fail over to — its RPCs must park until recovery, never leak to
        // OSTs 1..3 that the client's layout does not include.
        let scenario = Scenario::new(
            "one_proc",
            "",
            vec![JobSpec::uniform(
                JobId(1),
                1,
                1,
                ProcessSpec::continuous(200),
            )],
            SimDuration::from_secs(3),
        );
        let cfg = ClusterConfig {
            n_osts: 4,
            stripe_count: 1,
            faults: crash_faults(0, 20, 150),
            ..Default::default()
        };
        let out = Cluster::build_with(&scenario, Policy::adaptbf_default(), 3, cfg).run();
        assert_eq!(
            out.metrics.total_served(),
            200,
            "confined work still served"
        );
        let fs = out.fault_stats;
        assert!(fs.resent > 0, "{fs:?}");
        assert_eq!(
            fs.rerouted, 0,
            "no foreign OST may serve a stripe-confined file: {fs:?}"
        );
        assert_eq!(fs.undelivered, 0, "{fs:?}");
    }

    #[test]
    fn faulty_runs_are_deterministic_and_faultless_stats_are_zero() {
        let cfg = ClusterConfig {
            n_osts: 2,
            stripe_count: 2,
            faults: FaultPlan {
                churn: Some(adaptbf_workload::ChurnSpec {
                    every: SimDuration::from_millis(300),
                    offline: SimDuration::from_millis(100),
                    stride: 2,
                }),
                ..crash_faults(1, 60, 150)
            },
            ..Default::default()
        };
        let run = || {
            let out =
                Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 7, cfg).run();
            (out.metrics.served_by_job(), out.fault_stats)
        };
        let (a, fa) = run();
        let (b, fb) = run();
        assert_eq!(a, b);
        assert_eq!(fa, fb);
        let clean = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 7).run();
        assert_eq!(clean.fault_stats, FaultStats::default());
    }

    #[test]
    fn churn_pauses_issuance_but_serves_everything() {
        let cfg = ClusterConfig {
            faults: FaultPlan {
                churn: Some(adaptbf_workload::ChurnSpec {
                    every: SimDuration::from_millis(600),
                    offline: SimDuration::from_millis(200),
                    stride: 2,
                }),
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let faulty = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 3, cfg).run();
        assert_eq!(
            faulty.metrics.total_served(),
            200,
            "churn delays, never drops"
        );
        // Offline windows must actually defer service relative to the
        // healthy run at some point in the timeline.
        let healthy = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 3).run();
        assert!(
            faulty.metrics.last_service >= healthy.metrics.last_service,
            "pausing issuance cannot finish earlier"
        );
    }

    #[test]
    fn replay_reproduces_faulty_run_exactly() {
        let cfg = ClusterConfig {
            n_osts: 2,
            stripe_count: 2,
            faults: crash_faults(1, 20, 150),
            ..Default::default()
        };
        for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
            let (out, trace) = Cluster::build_with(&tiny_scenario(), policy, 9, cfg).run_traced();
            assert_eq!(
                trace.meta.faults, cfg.faults,
                "the active fault plan rides in the trace header"
            );
            // Resends/re-routes are derived, not recorded: the trace holds
            // exactly the client-originated arrivals.
            assert_eq!(trace.records.len(), 200);
            let replayed = Cluster::build_replay(&trace, policy, 9, cfg).run();
            assert_eq!(
                out.metrics.served_by_job(),
                replayed.metrics.served_by_job(),
                "faulty replay diverged under {}",
                policy.name()
            );
            assert_eq!(out.metrics.served(), replayed.metrics.served());
            assert_eq!(out.fault_stats, replayed.fault_stats);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn crash_on_unknown_ost_is_rejected() {
        let cfg = ClusterConfig {
            faults: crash_faults(3, 100, 100),
            ..Default::default()
        };
        let _ = Cluster::build_with(&tiny_scenario(), Policy::NoBw, 1, cfg);
    }

    #[test]
    fn multi_ost_stripes_processes() {
        let cfg = ClusterConfig {
            n_osts: 2,
            ..Default::default()
        };
        let out = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 1, cfg).run();
        assert_eq!(out.metrics.total_served(), 200);
        assert_eq!(out.overheads.len(), 2, "one controller per OST");
        assert!(out.overheads.iter().all(|o| o.ticks > 0));
    }

    // ---- sharded-execution oracles --------------------------------------

    /// Every scalar observable surface of a run, for whole-run equality
    /// checks across shard counts.
    type Surfaces = (
        BTreeMap<JobId, u64>,
        BTreeMap<JobId, Option<SimTime>>,
        SimTime,
        FaultStats,
        u64,
    );

    fn surfaces(out: &RawRunOutput) -> Surfaces {
        (
            out.metrics.served_by_job(),
            out.metrics.completion_time(),
            out.metrics.last_service,
            out.fault_stats,
            out.loop_stats.events,
        )
    }

    fn assert_same_run(a: &RawRunOutput, b: &RawRunOutput, what: &str) {
        assert_eq!(surfaces(a), surfaces(b), "{what}: scalar surfaces diverged");
        assert_eq!(a.metrics.served(), b.metrics.served(), "{what}: served");
        assert_eq!(a.metrics.demand(), b.metrics.demand(), "{what}: demand");
        assert_eq!(a.metrics.records(), b.metrics.records(), "{what}: records");
        assert_eq!(
            a.metrics.allocations(),
            b.metrics.allocations(),
            "{what}: allocations"
        );
        assert_eq!(
            a.metrics.latency_by_job(),
            b.metrics.latency_by_job(),
            "{what}: latency"
        );
        assert_eq!(a.overheads.len(), b.overheads.len(), "{what}: overheads");
    }

    #[test]
    fn sharded_runs_match_single_shard_exactly() {
        // 4 OSTs, stripe 2, no crash: the coupled epoch-barrier path with
        // real cross-shard arrivals and replies at every shard count > 1.
        let cfg = ClusterConfig {
            n_osts: 4,
            stripe_count: 2,
            ..Default::default()
        };
        for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
            let base = Cluster::build_with(&tiny_scenario(), policy, 11, cfg)
                .shards(1)
                .run();
            for n in [2, 4, 16] {
                let sharded = Cluster::build_with(&tiny_scenario(), policy, 11, cfg)
                    .shards(n)
                    .run();
                assert_same_run(&base, &sharded, &format!("{} @ {n} shards", policy.name()));
            }
        }
    }

    #[test]
    fn crash_reroute_crossing_shards_mid_epoch_matches_unsharded() {
        // OST 1 crashes while striped traffic is in flight: re-routes and
        // client resends must cross the shard boundary and still land in
        // the same global order as the single-queue run.
        let cfg = ClusterConfig {
            n_osts: 2,
            stripe_count: 2,
            faults: crash_faults(1, 20, 150),
            ..Default::default()
        };
        let base = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 3, cfg)
            .shards(1)
            .run();
        assert!(
            base.fault_stats.rerouted > 0,
            "the scenario must actually re-route: {:?}",
            base.fault_stats
        );
        for n in [2, 16] {
            let sharded = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 3, cfg)
                .shards(n)
                .run();
            assert_same_run(&base, &sharded, &format!("crash reroute @ {n} shards"));
        }
    }

    #[test]
    fn events_exactly_on_epoch_boundaries_are_exchanged_correctly() {
        // Zero jitter: every hop takes exactly `base_latency`, so every
        // cross-shard message lands exactly on an epoch boundary (the
        // lookahead is shaved a hair *below* the base latency — the
        // half-open window must push boundary events into the next epoch,
        // never drop or double-process them).
        let cfg = ClusterConfig {
            n_osts: 4,
            stripe_count: 4,
            network: NetworkConfig {
                base_latency: SimDuration::from_micros(100),
                jitter: 0.0,
            },
            ..Default::default()
        };
        let base = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 5, cfg)
            .shards(1)
            .run();
        assert_eq!(base.metrics.total_served(), 200);
        for n in [2, 4] {
            let sharded = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 5, cfg)
                .shards(n)
                .run();
            assert_same_run(&base, &sharded, &format!("boundary events @ {n} shards"));
        }
    }

    #[test]
    fn zero_lookahead_degrades_to_a_single_shard() {
        // Full jitter means a latency draw can be zero: no conservative
        // window exists (every epoch would be zero-length). The coupled
        // path must fall back to one shard rather than livelock.
        let cfg = ClusterConfig {
            n_osts: 2,
            stripe_count: 2,
            network: NetworkConfig {
                base_latency: SimDuration::from_micros(100),
                jitter: 1.0,
            },
            ..Default::default()
        };
        let base = Cluster::build_with(&tiny_scenario(), Policy::NoBw, 7, cfg)
            .shards(1)
            .run();
        let sharded = Cluster::build_with(&tiny_scenario(), Policy::NoBw, 7, cfg)
            .shards(8)
            .run();
        assert_eq!(base.metrics.total_served(), 200);
        assert_same_run(&base, &sharded, "zero-lookahead fallback");
    }

    #[test]
    fn empty_shards_are_harmless() {
        // 16 shards over 2 OSTs: most shards own nothing and must idle
        // through every epoch without disturbing the exchange.
        let cfg = ClusterConfig {
            n_osts: 2,
            stripe_count: 2,
            ..Default::default()
        };
        let base = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 13, cfg)
            .shards(1)
            .run();
        let sharded = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 13, cfg)
            .shards(16)
            .run();
        assert_same_run(&base, &sharded, "mostly-empty shards");
    }

    #[test]
    fn sharded_recording_is_byte_identical() {
        let cfg = ClusterConfig {
            n_osts: 4,
            stripe_count: 2,
            ..Default::default()
        };
        let (_, t1) = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 9, cfg)
            .shards(1)
            .run_traced();
        let (_, t4) = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 9, cfg)
            .shards(4)
            .run_traced();
        assert_eq!(t1, t4, "shard count leaked into the recorded trace");
        assert_eq!(t1.to_text(), t4.to_text());
    }

    /// One job, one process: the smallest wiring that still emits when
    /// its stripe set crosses a shard boundary.
    fn lone_proc_scenario() -> Scenario {
        Scenario::new(
            "lone",
            "one job, one process",
            vec![JobSpec::uniform(
                JobId(1),
                1,
                1,
                ProcessSpec::continuous(50),
            )],
            SimDuration::from_secs(3),
        )
    }

    #[test]
    fn adaptive_windows_match_the_fixed_oracle() {
        // Same run, both window protocols, with and without a crash — the
        // adaptive mode must be an execution detail, not a model change,
        // and must need no more epochs than the fixed oracle.
        let plain = ClusterConfig {
            n_osts: 4,
            stripe_count: 2,
            ..Default::default()
        };
        let crashy = ClusterConfig {
            n_osts: 2,
            stripe_count: 2,
            faults: crash_faults(1, 20, 150),
            ..Default::default()
        };
        for cfg in [plain, crashy] {
            for n in [2, 4, 16] {
                let run = |mode| {
                    Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 11, cfg)
                        .shards(n)
                        .windows(mode)
                        .run()
                };
                let adaptive = run(WindowMode::Adaptive);
                let fixed = run(WindowMode::Fixed);
                assert_same_run(&adaptive, &fixed, &format!("window modes @ {n} shards"));
                assert!(fixed.loop_stats.epochs > 0, "coupled run must take epochs");
                assert!(
                    adaptive.loop_stats.epochs <= fixed.loop_stats.epochs,
                    "adaptive windows cannot need more epochs: {} > {}",
                    adaptive.loop_stats.epochs,
                    fixed.loop_stats.epochs,
                );
            }
        }
    }

    #[test]
    fn solo_drain_engages_and_disengages() {
        // One process striping over both shards: only its own shard holds
        // events until the first cross-shard arrival matures, so the run
        // must open on the solo fast path and then fall back to windowed
        // epochs once both sides hold work.
        let cfg = ClusterConfig {
            n_osts: 2,
            stripe_count: 2,
            ..Default::default()
        };
        let base = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 17, cfg)
            .shards(1)
            .run();
        assert_eq!(base.metrics.total_served(), 50);
        assert_eq!(base.loop_stats.epochs, 0, "one shard never runs epochs");
        let sharded = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 17, cfg)
            .shards(2)
            .run();
        assert_same_run(&base, &sharded, "solo engage/disengage");
        let stats = sharded.loop_stats;
        assert!(stats.solo_drains >= 1, "must open solo: {stats:?}");
        assert!(
            stats.epochs > stats.solo_drains,
            "replies must pull the run back into windowed epochs: {stats:?}"
        );
    }

    #[test]
    fn aligned_stripes_run_independently_despite_striping() {
        // Stripe width 2 over 4 OSTs, but the lone process's stripe set
        // {0, 1} sits inside shard 0 of two: the emits analysis must see
        // that no boundary is crossed and skip the epoch protocol
        // entirely (the old stripe_count == 1 test was a special case).
        let cfg = ClusterConfig {
            n_osts: 4,
            stripe_count: 2,
            ..Default::default()
        };
        let base = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 19, cfg)
            .shards(1)
            .run();
        let sharded = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 19, cfg)
            .shards(2)
            .run();
        assert_same_run(&base, &sharded, "aligned stripes");
        assert_eq!(
            sharded.loop_stats.epochs, 0,
            "no stripe set crosses a boundary — nothing may couple"
        );
        assert_eq!(sharded.loop_stats.inbox_flushes, 0);
    }

    #[test]
    fn crash_window_with_an_eventless_peer_stays_solo() {
        // A crash forces every shard into the coupled set (re-routes can
        // cross anywhere), but the second shard never actually holds an
        // event: the owner must ride the solo fast path through the whole
        // run instead of stepping lookahead windows.
        let cfg = ClusterConfig {
            n_osts: 2,
            stripe_count: 1,
            faults: crash_faults(0, 20, 150),
            ..Default::default()
        };
        let base = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 23, cfg)
            .shards(1)
            .run();
        let sharded = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 23, cfg)
            .shards(2)
            .run();
        assert_same_run(&base, &sharded, "crash with eventless peer");
        assert!(
            base.fault_stats.resent > 0,
            "the crash must actually displace traffic: {:?}",
            base.fault_stats
        );
        let stats = sharded.loop_stats;
        assert!(stats.solo_drains >= 1, "peer never has events: {stats:?}");
        assert_eq!(
            stats.epochs, stats.solo_drains,
            "every epoch must be a solo drain: {stats:?}"
        );
        assert_eq!(stats.inbox_flushes, 0, "parks stay local: {stats:?}");
    }

    #[test]
    fn pooled_driver_matches_sequential_and_counters_agree() {
        // The persistent worker pool and the heap-driven sequential
        // driver must produce the same run *and* the same loop counters.
        // `RunGrid` nesting pins the worker count deterministically:
        // budget/items = 1 forces the sequential driver, 4 the pool.
        let cfg = ClusterConfig {
            n_osts: 4,
            stripe_count: 2,
            ..Default::default()
        };
        let run_at = |grid_threads: usize| {
            crate::RunGrid::with_threads(grid_threads)
                .run(vec![(), ()], |_| {
                    Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 29, cfg)
                        .shards(4)
                        .run()
                })
                .pop()
                .expect("two runs")
        };
        let seq = run_at(2); // share 1 → sequential epochs
        let pooled = run_at(8); // share 4 → worker pool
        assert_same_run(&seq, &pooled, "pool vs sequential");
        assert_eq!(
            seq.loop_stats, pooled.loop_stats,
            "drivers must agree on every counter"
        );
        assert!(seq.loop_stats.epochs > 0, "this wiring couples");
    }

    #[test]
    fn pool_drains_independent_shards_beside_coupled_ones() {
        // 8 OSTs in 4 shards of 2, stripe 2, three processes: process 1's
        // stripe {1, 2} couples shards 0 and 1, while shards 2 and 3 hold
        // no process but still run their OSTs' controller ticks. The pool
        // must drain those independent shards as well as step the epochs.
        let scenario = Scenario::new(
            "mixed",
            "coupled and independent shards in one run",
            vec![JobSpec::uniform(
                JobId(1),
                1,
                3,
                ProcessSpec::continuous(50),
            )],
            SimDuration::from_secs(2),
        );
        let cfg = ClusterConfig {
            n_osts: 8,
            stripe_count: 2,
            ..Default::default()
        };
        let run_at = |grid_threads: usize| {
            crate::RunGrid::with_threads(grid_threads)
                .run(vec![(), ()], |_| {
                    Cluster::build_with(&scenario, Policy::adaptbf_default(), 31, cfg)
                        .shards(4)
                        .run()
                })
                .pop()
                .expect("two runs")
        };
        let seq = run_at(2);
        let pooled = run_at(8);
        assert_same_run(&seq, &pooled, "mixed pool vs sequential");
        assert_eq!(seq.loop_stats, pooled.loop_stats);
        let ticks = |o: &RawRunOutput| o.overheads.iter().map(|c| c.ticks).collect::<Vec<_>>();
        assert_eq!(ticks(&seq), ticks(&pooled), "every OST ticked in both");
        assert!(ticks(&pooled).iter().all(|&t| t > 0));
        assert!(seq.loop_stats.epochs > 0, "shards 0 and 1 couple");
    }

    #[test]
    fn loop_stats_fold_sums_events_and_bounds_depth() {
        let mut a = LoopStats {
            events: 5,
            peak_queue_depth: 3,
            coalesced: 1,
            epochs: 2,
            solo_drains: 1,
            inbox_flushes: 4,
        };
        a.absorb(&LoopStats {
            events: 7,
            peak_queue_depth: 4,
            coalesced: 2,
            epochs: 3,
            solo_drains: 2,
            inbox_flushes: 5,
        });
        assert_eq!(
            a,
            LoopStats {
                events: 12,
                peak_queue_depth: 7,
                coalesced: 3,
                epochs: 5,
                solo_drains: 3,
                inbox_flushes: 9,
            }
        );
        // The folded event count is invariant across shard counts (every
        // shard count handles the same events); the coalesced count and
        // depth bound are per-shard-count deterministic but not invariant.
        let cfg = ClusterConfig {
            n_osts: 4,
            stripe_count: 2,
            ..Default::default()
        };
        let one = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 1, cfg)
            .shards(1)
            .run();
        let four = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 1, cfg)
            .shards(4)
            .run();
        assert_eq!(one.loop_stats.events, four.loop_stats.events);
        assert!(four.loop_stats.peak_queue_depth > 0);
        let rerun = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 1, cfg)
            .shards(4)
            .run();
        assert_eq!(four.loop_stats, rerun.loop_stats);
    }
}
