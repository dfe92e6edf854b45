//! The measured (untraced) runs that produce the end-to-end metrics.

use crate::gate::{self, LiveBooks, PathFacts, Tally};
use crate::probe;
use crate::spec::{self, LiveSpec, SimSpec};
use adaptbf_analysis::proportionality_error;
use adaptbf_node::RunReport;
use adaptbf_runtime::{LiveCluster, LiveReport};
use adaptbf_sim::cluster::RawRunOutput;
use adaptbf_sim::{report_digest, Cluster};
use adaptbf_workload::Scenario;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Extra untimed-run set-ups (and reference loops) timed alongside each
/// iteration.
const SETUPS_PER_ITERATION: usize = 4;

/// One end-to-end metric value.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rpcs_per_s", "rpc/s"),
    ("cpu_us_per_rpc", "us/rpc"),
    ("peak_rss_mb", "MiB"),
    ("model_tps", "rpc/sim_s"),
    ("model_prop_err", "ratio"),
];

/// What a measured run hands back to `main`.
pub struct Outcome {
    /// Every end-to-end metric, in `BENCHMARK.json` order, plus
    /// `failed_frac` for the human-readable table.
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub facts: PathFacts,
    /// Timed iterations in the run.
    pub iterations: usize,
}

/// Generate a sim workload's inputs and build its cluster: what
/// `setup_s` times.
pub fn sim_setup(name: &str, seed: u64) -> (SimSpec, Cluster) {
    let spec = spec::sim(name, seed);
    let cluster =
        Cluster::build_with(&spec.scenario, spec.policy, spec.seed, spec.cfg).shards(spec.shards);
    (spec, cluster)
}

/// Fold a finished run into the report `adaptbf run` prints.
pub fn report_of(spec: &SimSpec, out: RawRunOutput) -> RunReport {
    RunReport::from_run(
        spec.scenario.name.clone(),
        spec.policy.name(),
        spec.scenario.duration,
        out.metrics,
        &spec.scenario.job_ids(),
        out.overheads,
        out.fault_stats,
    )
}

/// The 1-shard reference report of a sim workload and seed (untimed).
pub fn sim_reference(name: &str, seed: u64) -> RunReport {
    let (spec, cluster) = sim_setup(name, seed);
    report_of(&spec, cluster.shards(1).run())
}

/// The paper's fairness criterion: served RPCs against node-count
/// priorities.
pub fn prop_err(report: &RunReport, scenario: &Scenario) -> f64 {
    let priorities: BTreeMap<_, _> = scenario
        .job_ids()
        .into_iter()
        .map(|j| (j, scenario.static_priority(j)))
        .collect();
    proportionality_error(&report.metrics.served_by_job(), &priorities)
}

/// Σ controller overhead over the run's wall.
pub fn ctl_share(report: &RunReport, wall_s: f64) -> f64 {
    let ns: u64 = report.overheads.iter().map(|o| o.total_ns).sum();
    ns as f64 / 1e9 / wall_s
}

/// One timed iteration of a workload.
struct Sample {
    /// Wall time of the iteration's own set-up.
    setup_s: f64,
    /// Served RPCs per wall-second of the timed part.
    rate: f64,
    /// Process CPU-µs per served RPC of the timed part.
    cpu_us: f64,
    /// Model throughput and proportionality error of the iteration.
    tps: f64,
    err: f64,
}

/// Repeat `iteration` until `seconds` have passed (at least once), timing
/// `setup` and the host's [`probe::reference_loop_s`]
/// [`SETUPS_PER_ITERATION`] extra times alongside each iteration so their
/// samples span the whole run like the iterations do. Every metric is the
/// median of its per-iteration values. The time metrics are then scaled to
/// the nominal host: a shared host switches between fast and slow phases
/// that last seconds to minutes, longer than one run, and the reference
/// loop's run median moves with them.
fn repeat(
    seconds: f64,
    mut setup: impl FnMut(),
    mut iteration: impl FnMut() -> Sample,
) -> (Vec<Metric>, usize) {
    let (mut setups, mut refs, mut rates, mut cpus, mut rss, mut tps, mut errs) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rates.is_empty() || Instant::now() < deadline {
        probe::reset_peak_rss();
        let s = iteration();
        rss.push(probe::peak_rss_mb());
        setups.push(s.setup_s);
        rates.push(s.rate);
        cpus.push(s.cpu_us);
        tps.push(s.tps);
        errs.push(s.err);
        for _ in 0..SETUPS_PER_ITERATION {
            let t0 = Instant::now();
            setup();
            setups.push(t0.elapsed().as_secs_f64());
            refs.push(probe::reference_loop_s());
        }
    }
    let iterations = rates.len();
    print_spread("rpcs_per_s", &rates);
    print_spread("cpu_us_per_rpc", &cpus);
    print_spread("peak_rss_mb", &rss);
    print_spread("reference_loop_s", &refs);
    // How much slower than nominal the host ran during this run.
    let slow = crate::quantile(&mut refs, 0.5) / probe::REFERENCE_S;
    println!("host slowdown: {slow:.6} (time metrics below are scaled to the nominal host)");
    let values = [
        crate::quantile(&mut setups, 0.5) / slow,
        crate::quantile(&mut rates, 0.5) * slow,
        crate::quantile(&mut cpus, 0.5) / slow,
        crate::quantile(&mut rss, 0.5),
        crate::quantile(&mut tps, 0.5),
        crate::quantile(&mut errs, 0.5),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    (metrics, iterations)
}

/// Run a sim workload repeatedly for `seconds`; every run is checked
/// against the untimed 1-shard reference.
pub fn sim(name: &str, seed: u64, seconds: f64) -> Outcome {
    let reference = report_digest(&sim_reference(name, seed));
    let mut tally = Tally::default();
    let mut facts = PathFacts::default();
    let (metrics, iterations) = repeat(
        seconds,
        || drop(sim_setup(name, seed)),
        || {
            let t0 = Instant::now();
            let (spec, cluster) = sim_setup(name, seed);
            let setup_s = t0.elapsed().as_secs_f64();

            let cpu0 = probe::cpu_s();
            let t1 = Instant::now();
            let out = cluster.run();
            let loop_stats = out.loop_stats;
            let report = report_of(&spec, out);
            let wall = t1.elapsed().as_secs_f64();
            let cpu = probe::cpu_s() - cpu0;

            let served = report.metrics.total_served().max(1) as f64;
            gate::check_sim_run(&mut tally, &report_digest(&report), &reference, &report);
            facts = PathFacts {
                epochs: loop_stats.epochs,
                resent: report.fault_stats.resent,
                rerouted: report.fault_stats.rerouted,
                ctl_share: ctl_share(&report, wall),
                ..facts
            };
            Sample {
                setup_s,
                rate: served / wall,
                cpu_us: cpu / served * 1e6,
                tps: report.overall_throughput_tps(),
                err: prop_err(&report, &spec.scenario),
            }
        },
    );
    let metrics = with_failed_frac(metrics, &tally);
    Outcome {
        metrics,
        tally,
        facts,
        iterations,
    }
}

/// One live rung on the workload's tuning and policy.
pub fn live_rung(spec: &LiveSpec, rung: &Scenario) -> LiveReport {
    LiveCluster::run(rung, spec.policy, spec.tuning, spec.seed)
}

/// Run both `live_open` rungs repeatedly for `seconds`. CPU per RPC is
/// taken at the sub-saturation rung (where everything released is
/// served), served/s at the overload rung; the model metrics come from the
/// sub-saturation rung, whose served counts are fixed by the inputs.
pub fn live(seed: u64, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let mut facts = PathFacts::default();
    // Warm-up: one untimed, unchecked sub-saturation rung.
    let warm = spec::live(seed);
    drop(live_rung(&warm, &warm.sub));
    let (metrics, iterations) = repeat(
        seconds,
        || drop(spec::live(seed)),
        || {
            let t0 = Instant::now();
            let spec = spec::live(seed);
            let setup_s = t0.elapsed().as_secs_f64();

            let cpu0 = probe::cpu_s();
            let sub = live_rung(&spec, &spec.sub);
            let cpu = probe::cpu_s() - cpu0;
            let over = live_rung(&spec, &spec.over);

            let (sb, ob) = (LiveBooks::of(&sub), LiveBooks::of(&over));
            gate::check_live_sub(&mut tally, &sb);
            gate::check_live_books(&mut tally, "sub", &sb);
            gate::check_live_books(&mut tally, "over", &ob);
            facts = PathFacts {
                over_served: ob.served,
                over_offered: ob.released,
                sub_served_frac: sb.served as f64 / sb.released.max(1) as f64,
                ..facts
            };
            Sample {
                setup_s,
                rate: ob.served as f64 / over.elapsed.as_secs_f64(),
                cpu_us: cpu / sb.served.max(1) as f64 * 1e6,
                tps: sub.report.overall_throughput_tps(),
                err: prop_err(&sub.report, &spec.sub),
            }
        },
    );
    let metrics = with_failed_frac(metrics, &tally);
    Outcome {
        metrics,
        tally,
        facts,
        iterations,
    }
}

/// `failed_frac` rides along for the human-readable table.
fn with_failed_frac(mut metrics: Vec<Metric>, tally: &Tally) -> Vec<Metric> {
    metrics.push(("failed_frac", tally.failed_frac(), "ratio"));
    metrics
}

/// Within-run spread of the per-iteration values behind a quantile.
fn print_spread(name: &str, v: &[f64]) {
    let mut v = v.to_vec();
    println!(
        "per-iteration {name}: min {:.6} median {:.6} max {:.6}",
        crate::quantile(&mut v, 0.0),
        crate::quantile(&mut v, 0.5),
        crate::quantile(&mut v, 1.0),
    );
}
