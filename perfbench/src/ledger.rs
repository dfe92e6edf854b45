//! The traced run: the per-layer ledger.
//!
//! Every number here is taken from outside the program: the benchmark
//! times its own calls into each layer's public functions (as spans, see
//! [`crate::trace`]) or reads counters the program already reports
//! (`LoopStats`, `FaultStats`, `ControllerOverhead`). Layers the run
//! cannot split open — the event queue and the scheduler inside
//! `Cluster::run` — are timed by replaying the run's recorded arrivals
//! through a standalone instance of the layer.
//!
//! A traced run reports every per-layer metric; a metric a workload does
//! not exercise reads 0 (the sim workloads have no live rungs).

use crate::gate::{self, LiveBooks, PathFacts, Tally};
use crate::measure::{ctl_share, live_rung, report_of};
use crate::probe;
use crate::spec::{self, LiveSpec, SimSpec};
use crate::trace::Tracer;
use adaptbf_core::AllocationController;
use adaptbf_model::config::paper;
use adaptbf_model::{JobId, JobObservation, OstConfig, SimTime, TbfSchedulerConfig};
use adaptbf_node::{OstNode, Policy, RunReport};
use adaptbf_runtime::{LiveBatch, LiveMetrics, LiveOst, OstWiring, WallClock};
use adaptbf_sim::cluster::{ClusterConfig, RawRunOutput};
use adaptbf_sim::engine::EventQueue;
use adaptbf_sim::{report_digest, Cluster};
use adaptbf_tbf::{JobStatsTracker, NrsTbfScheduler, RuleDaemon, SchedDecision};
use adaptbf_workload::{FaultPlan, Trace, TraceRecord};
use std::collections::BTreeMap;
use std::time::Instant;

/// Untraced repeats whose median the traced run is held against.
const UNTRACED_REPEATS: usize = 3;
/// Largest batch of consecutive calls timed as one span.
const CHUNK: usize = 64;
/// RPCs fed to the standalone live OST.
const INGEST_RPCS: usize = 200_000;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workload.gen_ms", "ms"),
    ("engine.events", "count"),
    ("engine.peak_queue", "count"),
    ("engine.coalesced", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.push_pop_ns", "ns"),
    ("tbf.enqueue_ns", "ns"),
    ("tbf.next_ns", "ns"),
    ("tbf.serve_ratio", "ratio"),
    ("tbf.rules", "count"),
    ("tbf.reconcile_us", "us"),
    ("core.step_us", "us"),
    ("core.jobs_per_step", "count"),
    ("node.tick_us", "us"),
    ("node.ticks", "count"),
    ("node.ctl_share", "ratio"),
    ("node.report_ms", "ms"),
    ("cluster.epochs", "count"),
    ("cluster.solo_drains", "count"),
    ("cluster.inbox_flushes", "count"),
    ("cluster.shard_tax_s", "s"),
    ("cluster.spin_cpu_s", "s"),
    ("cluster.resent", "count"),
    ("cluster.lost_in_service", "count"),
    ("cluster.rerouted", "count"),
    ("cluster.parked", "count"),
    ("cluster.undelivered", "count"),
    ("runtime.ost_ingest_ns", "ns"),
    ("runtime.overrun_ms", "ms"),
    ("runtime.served_frac.sub", "ratio"),
    ("runtime.served_frac.over", "ratio"),
    ("runtime.ticks.sub", "count"),
    ("runtime.ticks.over", "count"),
    ("runtime.cpu_s", "s"),
    ("runtime.lat_p50_ms", "ms"),
    ("runtime.lat_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The traced run's output.
pub struct Ledger {
    pub metrics: Vec<(String, f64, String)>,
    pub tally: Tally,
    pub facts: PathFacts,
    pub span_count: usize,
    pub spans_path: String,
}

/// Per-layer values by name; unset ones read 0.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, v);
    }
}

pub fn run(workload: &str, seed: u64) -> Ledger {
    let mut tr = Tracer::new();
    let mut v = Values::default();
    let mut tally = Tally::default();
    let facts = match spec::kind(workload) {
        Some(spec::Kind::Live) => live(&mut tr, &mut v, &mut tally, seed),
        _ => sim(&mut tr, &mut v, &mut tally, workload, seed),
    };
    let spans_path = write_spans(&tr, workload, seed);
    Ledger {
        metrics: PER_LAYER
            .iter()
            .map(|(n, u)| {
                (
                    n.to_string(),
                    v.0.get(n).copied().unwrap_or(0.0),
                    u.to_string(),
                )
            })
            .collect(),
        tally,
        facts,
        span_count: tr.len(),
        spans_path,
    }
}

/// Spans go next to the build output (`CARGO_TARGET_DIR`, else the
/// package's own `target/`), which the checkout ignores.
fn write_spans(tr: &Tracer, workload: &str, seed: u64) -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&dir).join("perfbench-spans");
    let path = dir.join(format!("{workload}-{seed}.tsv"));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.render())) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("(not written: {e})"),
    }
}

/// One timed sim run: wall of `Cluster::run` + `RunReport::from_run`.
struct Timed {
    report: RunReport,
    run_s: f64,
    report_s: f64,
    cpu_s: f64,
}

fn timed_run(
    tr: &mut Tracer,
    cluster: Cluster,
    fold: impl FnOnce(RawRunOutput) -> RunReport,
) -> Timed {
    let cpu0 = probe::cpu_s();
    let t0 = Instant::now();
    let out = tr.time("cluster.run", || cluster.run());
    let run_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = tr.time("node.report", || fold(out));
    let report_s = t1.elapsed().as_secs_f64();
    Timed {
        report,
        run_s,
        report_s,
        cpu_s: probe::cpu_s() - cpu0,
    }
}

/// What the sim layers are measured on: a way to build the cluster at a
/// given shard count and to fold its output.
struct SimTarget<'a> {
    build: &'a dyn Fn(&mut Tracer, usize) -> Cluster,
    fold: &'a dyn Fn(RawRunOutput) -> RunReport,
    shards: usize,
    jobs: Vec<(JobId, u64)>,
    policy: Policy,
    tbf: TbfSchedulerConfig,
}

/// The sim-side ledger shared by every workload: untraced repeats, the
/// other shard count, one recorded run, then the layer replays on its
/// arrivals. Returns what the runs showed about their paths.
fn sim_layers(tr: &mut Tracer, v: &mut Values, tally: &mut Tally, t: &SimTarget) -> PathFacts {
    let reference = {
        let c = (t.build)(tr, 1);
        report_digest(&timed_run(tr, c, t.fold).report)
    };
    let mut runs: Vec<Timed> = (0..UNTRACED_REPEATS)
        .map(|_| {
            let c = (t.build)(tr, t.shards);
            timed_run(tr, c, t.fold)
        })
        .collect();
    for r in &runs {
        gate::check_sim_run(tally, &report_digest(&r.report), &reference, &r.report);
    }
    runs.sort_by(|a, b| (a.run_s + a.report_s).total_cmp(&(b.run_s + b.report_s)));
    let mid = runs.swap_remove(runs.len() / 2);
    let untraced_wall = mid.run_s + mid.report_s;

    // The sharding tax: this run at 2 shards minus at 1 shard.
    let other = if t.shards == 1 { 2 } else { 1 };
    let c = (t.build)(tr, other);
    let other_run = timed_run(tr, c, t.fold);
    gate::check_sim_run(
        tally,
        &report_digest(&other_run.report),
        &reference,
        &other_run.report,
    );
    let (one, two) = if t.shards == 1 {
        (mid.run_s, other_run.run_s)
    } else {
        (other_run.run_s, mid.run_s)
    };
    v.set("cluster.shard_tax_s", two - one);
    v.set("cluster.spin_cpu_s", mid.cpu_s - mid.run_s - mid.report_s);

    // The recorded run: the arrivals every replay below feeds on.
    let c = (t.build)(tr, t.shards);
    let t0 = Instant::now();
    let (out, trace) = tr.time("cluster.run_traced", || c.run_traced());
    let ls = out.loop_stats;
    let report = tr.time("node.report", || (t.fold)(out));
    let traced_wall = t0.elapsed().as_secs_f64();
    gate::check_sim_run(tally, &report_digest(&report), &reference, &report);
    v.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);

    let fs = report.fault_stats;
    for (name, n) in [
        ("engine.events", ls.events as f64),
        ("engine.peak_queue", ls.peak_queue_depth as f64),
        ("engine.coalesced", ls.coalesced as f64),
        (
            "engine.ns_per_event",
            mid.run_s * 1e9 / ls.events.max(1) as f64,
        ),
        ("cluster.epochs", ls.epochs as f64),
        ("cluster.solo_drains", ls.solo_drains as f64),
        ("cluster.inbox_flushes", ls.inbox_flushes as f64),
        ("cluster.resent", fs.resent as f64),
        ("cluster.lost_in_service", fs.lost_in_service as f64),
        ("cluster.rerouted", fs.rerouted as f64),
        ("cluster.parked", fs.parked as f64),
        ("cluster.undelivered", fs.undelivered as f64),
        ("node.report_ms", mid.report_s * 1e3),
    ] {
        v.set(name, n);
    }
    let ctl_ns: u64 = mid.report.overheads.iter().map(|o| o.total_ns).sum();
    let ticks: u64 = mid.report.overheads.iter().map(|o| o.ticks).sum();
    let share = ctl_share(&mid.report, untraced_wall);
    v.set("node.ticks", ticks as f64);
    v.set("node.tick_us", ctl_ns as f64 / 1e3 / ticks.max(1) as f64);
    v.set("node.ctl_share", share);

    // Layer replays on the recorded arrivals.
    let push_pop_ns = engine_replay(tr, &trace.records, ls.peak_queue_depth);
    v.set("engine.push_pop_ns", push_pop_ns);
    let tbf = tbf_replay(tr, &trace, &t.jobs, t.policy, t.tbf);
    tbf.set(v);
    let ingest_ns = ingest(tr, &trace.records, &t.jobs);
    v.set("runtime.ost_ingest_ns", ingest_ns);

    // How much of the run's wall the layer costs explain: events at the
    // replayed queue cost, arrivals at the replayed enqueue + dispatch
    // cost, and the controller's own overhead accounting.
    let explained = ls.events as f64 * push_pop_ns
        + trace.records.len() as f64 * (tbf.enqueue_ns + tbf.next_ns)
        + ctl_ns as f64;
    v.set("trace.coverage", explained / (mid.run_s * 1e9));
    PathFacts {
        epochs: ls.epochs,
        resent: fs.resent,
        rerouted: fs.rerouted,
        ctl_share: share,
        ..PathFacts::default()
    }
}

fn sim(tr: &mut Tracer, v: &mut Values, tally: &mut Tally, workload: &str, seed: u64) -> PathFacts {
    let t0 = Instant::now();
    let spec: SimSpec = tr.time("workload.gen", || spec::sim(workload, seed));
    v.set("workload.gen_ms", t0.elapsed().as_secs_f64() * 1e3);
    let build = |tr: &mut Tracer, shards: usize| {
        tr.time("cluster.build", || {
            Cluster::build_with(&spec.scenario, spec.policy, spec.seed, spec.cfg).shards(shards)
        })
    };
    let fold = |out: RawRunOutput| report_of(&spec, out);
    let target = SimTarget {
        build: &build,
        fold: &fold,
        shards: spec.shards,
        jobs: spec.scenario.jobs.iter().map(|j| (j.id, j.nodes)).collect(),
        policy: spec.policy,
        tbf: spec.cfg.tbf,
    };
    sim_layers(tr, v, tally, &target)
}

fn live(tr: &mut Tracer, v: &mut Values, tally: &mut Tally, seed: u64) -> PathFacts {
    let t0 = Instant::now();
    let spec: LiveSpec = tr.time("workload.gen", || spec::live(seed));
    v.set("workload.gen_ms", t0.elapsed().as_secs_f64() * 1e3);

    let cpu0 = probe::cpu_s();
    let sub = tr.time("runtime.sub", || live_rung(&spec, &spec.sub));
    let sub_cpu = probe::cpu_s() - cpu0;
    v.set("runtime.cpu_s", sub_cpu);
    let over = tr.time("runtime.over", || live_rung(&spec, &spec.over));
    // The sub-saturation rung again with the arrival recorder armed: its
    // capture feeds the sim-side replays, its CPU the recorder's cost.
    let cpu0 = probe::cpu_s();
    let (recorded, trace) = tr.time("runtime.sub_recorded", || {
        adaptbf_runtime::LiveCluster::record_with_faults(
            &spec.sub,
            spec.policy,
            spec.tuning,
            &FaultPlan::none(),
            spec.seed,
        )
        .expect("a fault-free plan is live-feasible")
    });
    let recorded_cpu = probe::cpu_s() - cpu0;
    let (sb, ob, rb) = (
        LiveBooks::of(&sub),
        LiveBooks::of(&over),
        LiveBooks::of(&recorded),
    );
    gate::check_live_sub(tally, &sb);
    gate::check_live_books(tally, "sub", &sb);
    gate::check_live_books(tally, "over", &ob);
    gate::check_live_books(tally, "sub_recorded", &rb);

    let frac = |b: &LiveBooks| b.served as f64 / b.released.max(1) as f64;
    v.set("runtime.served_frac.sub", frac(&sb));
    v.set("runtime.served_frac.over", frac(&ob));
    v.set(
        "runtime.ticks.sub",
        sub.ticks_per_ost.iter().sum::<u64>() as f64,
    );
    v.set(
        "runtime.ticks.over",
        over.ticks_per_ost.iter().sum::<u64>() as f64,
    );
    let over_wall = over.elapsed.as_secs_f64();
    v.set(
        "runtime.overrun_ms",
        (over_wall - spec.over.duration.as_secs_f64()) * 1e3,
    );
    let worst = |pick: fn(&adaptbf_model::LatencyHistogram) -> f64| {
        sub.report
            .metrics
            .latency_by_job()
            .values()
            .map(pick)
            .fold(0.0, f64::max)
    };
    v.set(
        "runtime.lat_p50_ms",
        worst(|h| h.median().as_secs_f64() * 1e3),
    );
    v.set("runtime.lat_p99_ms", worst(|h| h.p99().as_secs_f64() * 1e3));

    // The controller on wall-clock time, at the overload rung.
    let ctl_ns: u64 = over.report.overheads.iter().map(|o| o.total_ns).sum();
    let ticks: u64 = over.report.overheads.iter().map(|o| o.ticks).sum();

    // The sim layers, on a sim replay of the recorded rung.
    let cfg = ClusterConfig {
        ost: spec.tuning.ost,
        tbf: spec.tuning.tbf,
        n_osts: 1,
        n_clients: spec.tuning.n_clients,
        static_rate_total: spec.tuning.static_rate_total,
        ..ClusterConfig::default()
    };
    let build = |tr: &mut Tracer, shards: usize| {
        tr.time("cluster.build", || {
            Cluster::build_replay(&trace, spec.policy, spec.seed, cfg).shards(shards)
        })
    };
    let job_ids = spec.over.job_ids();
    let fold = |out: RawRunOutput| {
        RunReport::from_run(
            "live_open_replay",
            spec.policy.name(),
            trace.meta.duration,
            out.metrics,
            &job_ids,
            out.overheads,
            out.fault_stats,
        )
    };
    let target = SimTarget {
        build: &build,
        fold: &fold,
        shards: 1,
        jobs: trace.meta.jobs.clone(),
        policy: spec.policy,
        tbf: spec.tuning.tbf,
    };
    sim_layers(tr, v, tally, &target);

    // Live overrides: the controller on wall-clock time at the overload
    // rung, and the recorder's cost as CPU per served RPC (a sub-saturation
    // rung's wall is fixed by its offered load).
    v.set("node.ticks", ticks as f64);
    v.set("node.tick_us", ctl_ns as f64 / 1e3 / ticks.max(1) as f64);
    v.set("node.ctl_share", ctl_ns as f64 / 1e9 / over_wall);
    let per_rpc = |cpu: f64, b: &LiveBooks| cpu / b.served.max(1) as f64;
    v.set(
        "trace.overhead_frac",
        per_rpc(recorded_cpu, &rb) / per_rpc(sub_cpu, &sb) - 1.0,
    );
    PathFacts {
        over_served: ob.served,
        over_offered: ob.released,
        sub_served_frac: frac(&sb),
        ..PathFacts::default()
    }
}

/// Replay the recorded arrival instants through a standalone calendar
/// queue held at the run's peak depth: one `pop_entry` + `push_keyed`
/// pair per arrival. Returns ns per pair.
fn engine_replay(tr: &mut Tracer, records: &[TraceRecord], depth: usize) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let depth = depth.clamp(1, records.len());
    let mut q: EventQueue<u32> = EventQueue::new();
    tr.time("engine.push_pop", || {
        for (i, r) in records[..depth].iter().enumerate() {
            q.push_keyed(r.at, i as u64, 0);
        }
    });
    for (c, chunk) in records[depth..].chunks(4096).enumerate() {
        let base = depth + c * 4096;
        tr.time("engine.push_pop", || {
            for (i, r) in chunk.iter().enumerate() {
                std::hint::black_box(q.pop_entry());
                q.push_keyed(r.at, (base + i) as u64, 0);
            }
        });
    }
    tr.time("engine.push_pop", || while q.pop_entry().is_some() {});
    tr.secs("engine.push_pop") * 1e9 / records.len() as f64
}

/// Results of the per-OST scheduler + controller replay.
#[derive(Default)]
struct TbfReplay {
    enqueue_ns: f64,
    next_ns: f64,
    serve_ratio: f64,
    rules: usize,
    reconcile_us: f64,
    step_us: f64,
    jobs_per_step: f64,
}

impl TbfReplay {
    fn set(&self, v: &mut Values) {
        v.set("tbf.enqueue_ns", self.enqueue_ns);
        v.set("tbf.next_ns", self.next_ns);
        v.set("tbf.serve_ratio", self.serve_ratio);
        v.set("tbf.rules", self.rules as f64);
        v.set("tbf.reconcile_us", self.reconcile_us);
        v.set("core.step_us", self.step_us);
        v.set("core.jobs_per_step", self.jobs_per_step);
    }
}

/// Replay each OST's recorded arrivals through a standalone
/// `NrsTbfScheduler` driven by its own allocation cycle: arrivals are
/// enqueued in order (in spans of up to 64), each followed by one `next`
/// at the span's last arrival instant, and every controller period the
/// per-job demand observed since the last cycle goes through
/// `AllocationController::step` and `RuleDaemon::apply` (the rule
/// start/stop/`apply_updates` reconcile), exactly the steps of one
/// `ControllerDriver::tick`.
fn tbf_replay(
    tr: &mut Tracer,
    trace: &Trace,
    jobs: &[(JobId, u64)],
    policy: Policy,
    tbf: TbfSchedulerConfig,
) -> TbfReplay {
    let acfg = match policy {
        Policy::AdapTbf(c) => c,
        _ => paper::adaptbf(),
    };
    let nodes: BTreeMap<JobId, u64> = jobs.iter().copied().collect();
    let n_osts = trace.records.iter().map(|r| r.ost + 1).max().unwrap_or(0);
    let mut per_ost: Vec<Vec<&TraceRecord>> = vec![Vec::new(); n_osts];
    for r in &trace.records {
        per_ost[r.ost].push(r);
    }
    let (mut serves, mut nexts, mut steps, mut observed) = (0u64, 0u64, 0u64, 0u64);
    let mut rules = 0;
    let mut stats_scratch = Vec::new();
    for records in per_ost {
        let mut sched = NrsTbfScheduler::new(tbf);
        sched.reserve_jobs(jobs.len());
        let mut stats = JobStatsTracker::new();
        stats.reserve(jobs.len());
        let mut ctl = AllocationController::new(acfg);
        let mut daemon = RuleDaemon::new();
        let mut next_tick = SimTime::ZERO + acfg.period;
        let mut i = 0;
        while i < records.len() {
            while records[i].at >= next_tick {
                stats.collect_into(&mut stats_scratch);
                let obs: Vec<JobObservation> = stats_scratch
                    .iter()
                    .map(|&(job, d)| {
                        JobObservation::new(job, nodes.get(&job).copied().unwrap_or(1), d)
                    })
                    .collect();
                let outcome = tr.time("core.step", || ctl.step(&obs));
                let weights: Vec<(JobId, u32)> = obs
                    .iter()
                    .map(|o| (o.job, o.nodes.min(u32::MAX as u64) as u32))
                    .collect();
                tr.time("tbf.reconcile", || {
                    daemon.apply(&mut sched, &outcome.allocations, &weights, next_tick)
                });
                stats.clear();
                steps += 1;
                observed += obs.len() as u64;
                rules = rules.max(sched.rules().len());
                next_tick += acfg.period;
            }
            let mut end = i;
            while end < records.len() && end - i < CHUNK && records[end].at < next_tick {
                end += 1;
            }
            let chunk = &records[i..end];
            for r in chunk {
                stats.record_arrival(r.rpc.job);
            }
            tr.time("tbf.enqueue", || {
                for r in chunk {
                    sched.enqueue(r.rpc, r.at);
                }
            });
            let now = chunk[chunk.len() - 1].at;
            serves += tr.time("tbf.next", || {
                chunk
                    .iter()
                    .filter(|_| matches!(sched.next(now), SchedDecision::Serve(_)))
                    .count() as u64
            });
            nexts += chunk.len() as u64;
            i = end;
        }
    }
    let per = |name: &str, n: u64, scale: f64| tr.secs(name) * scale / n.max(1) as f64;
    TbfReplay {
        enqueue_ns: per("tbf.enqueue", nexts, 1e9),
        next_ns: per("tbf.next", nexts, 1e9),
        serve_ratio: serves as f64 / nexts.max(1) as f64,
        rules,
        reconcile_us: per("tbf.reconcile", steps, 1e6),
        step_us: per("core.step", steps, 1e6),
        jobs_per_step: observed as f64 / steps.max(1) as f64,
    }
}

/// Per-RPC cost of one `LiveOst` thread fed full batches of the recorded
/// RPCs by one thread, at zero service time, under the `live_open`
/// policy (token ceiling lifted) with the workload's jobs.
fn ingest(tr: &mut Tracer, records: &[TraceRecord], jobs: &[(JobId, u64)]) -> f64 {
    let n = records.len().min(INGEST_RPCS);
    if n == 0 {
        return 0.0;
    }
    let tuning = spec::live_tuning();
    let ost = OstConfig {
        disk_bw_bytes_per_s: u64::MAX / 4,
        ..tuning.ost
    };
    let node = OstNode::new(
        spec::live_policy(),
        tuning.tbf,
        jobs,
        tuning.static_rate_total,
        SimTime::ZERO,
    );
    let metrics = LiveMetrics::new(tuning.bucket, 1, Vec::new());
    let clock = WallClock::start();
    let payload = bytes::Bytes::from(vec![0u8; tuning.payload_bytes]);
    let (tx, rx) = crossbeam::channel::bounded::<LiveBatch>(4096);
    let (reply_tx, reply_rx) = crossbeam::channel::bounded::<u64>(n + 16);
    let handle = LiveOst::spawn(
        "ingest".into(),
        tx,
        rx,
        ost,
        node,
        FaultPlan::none(),
        OstWiring {
            index: 0,
            n_osts: 1,
            stripe_count: 1,
        },
        Vec::new(),
        SimTime::ZERO + adaptbf_model::SimDuration::from_secs(3600),
        clock,
        metrics.ost_shard(0),
        1,
        payload.clone(),
    );
    let tx = handle.sender();
    let issued_at = clock.now();
    let batches: Vec<LiveBatch> = records[..n]
        .chunks(tuning.max_batch)
        .map(|c| LiveBatch {
            rpcs: c
                .iter()
                .map(|r| adaptbf_model::Rpc { issued_at, ..r.rpc })
                .collect(),
            payload: payload.clone(),
            reply_to: reply_tx.clone(),
            handoff: false,
        })
        .collect();
    drop(reply_tx);
    // Closing the channel makes the thread drain everything and exit, so
    // the join marks the last RPC served.
    let t0 = Instant::now();
    let fin = tr.time("runtime.ingest", || {
        for b in batches {
            tx.send(b).expect("OST thread alive");
        }
        drop(tx);
        handle.shutdown()
    });
    let ns = t0.elapsed().as_nanos() as f64 / n as f64;
    drop(reply_rx);
    assert_eq!(
        fin.served, n as u64,
        "standalone OST served {} of {n}",
        fin.served
    );
    ns
}
