//! The four named workloads, generated from a seed.
//!
//! The seed reaches the program only through the inputs built here: job
//! shapes, fault windows, arrival phases and the simulator's own RNG seed.
//! Every seed keeps the *shape* of a workload (job count, node-count
//! multiset, total work to within a fraction of a percent, one crash and
//! one stall on `coupled`), so the model-level metrics of two seeds stay
//! close and a seed-to-seed comparison measures the code, not the input.

use adaptbf_model::config::paper;
use adaptbf_model::{JobId, OstConfig, SimDuration, SimTime, TbfSchedulerConfig};
use adaptbf_node::Policy;
use adaptbf_runtime::LiveTuning;
use adaptbf_sim::cluster::ClusterConfig;
use adaptbf_workload::{
    CrashSpec, FaultPlan, JobSpec, ProcessSpec, Scenario, StallSpec, WorkChunk,
};

/// Every workload `--workload` accepts.
pub const NAMES: [&str; 4] = ["bulk", "coupled", "rule_storm", "live_open"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// splitmix64: a tiny, well-mixed generator so the benchmark's inputs do
/// not depend on any RNG the program under test ships.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Which executor a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sim,
    Live,
}

/// Map a `--workload` name to its executor.
pub fn kind(name: &str) -> Option<Kind> {
    match name {
        "bulk" | "coupled" | "rule_storm" => Some(Kind::Sim),
        "live_open" => Some(Kind::Live),
        _ => None,
    }
}

/// One simulator run's inputs.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub scenario: Scenario,
    pub cfg: ClusterConfig,
    pub policy: Policy,
    pub seed: u64,
    /// Event-loop shards the measured run uses.
    pub shards: usize,
}

/// The sim workloads. Panics on a name [`kind`] does not map to `Sim`.
pub fn sim(name: &str, seed: u64) -> SimSpec {
    match name {
        "bulk" => bulk(seed),
        "coupled" => coupled(seed),
        "rule_storm" => rule_storm(seed),
        _ => panic!("{name} is not a sim workload"),
    }
}

/// Sim threads a workload may use (the pool's budget): two only where
/// the run is sharded.
pub fn sim_threads(spec: &SimSpec) -> usize {
    spec.shards.min(2)
}

/// million_rpc-shaped jobs: 64 continuous jobs × 2 processes with the
/// node-count multiset of `scenarios::million_rpc`, rotated by the seed,
/// and each file trimmed by up to 0.5 %.
fn million_rpc_jobs(rng: &mut Rng) -> Vec<JobSpec> {
    const JOBS: u32 = 64;
    let rotate = rng.below(16);
    (0..JOBS)
        .map(|i| {
            let nodes = 1 + ((i as u64 + rotate) * 5) % 16;
            let file = 8192 - rng.below(41);
            JobSpec::uniform(
                JobId(i + 1),
                nodes,
                2,
                ProcessSpec::continuous(file).with_max_inflight(16),
            )
        })
        .collect()
}

fn million_rpc_cfg() -> ClusterConfig {
    ClusterConfig {
        n_clients: 8,
        n_osts: 16,
        ..ClusterConfig::default()
    }
}

/// `bulk`: the million-RPC run on one queue — calendar queue, TBF
/// dispatch and metrics, no epochs, no faults.
pub fn bulk(seed: u64) -> SimSpec {
    let mut rng = Rng::new(seed);
    let jobs = million_rpc_jobs(&mut rng);
    SimSpec {
        scenario: Scenario::new("bulk", "million_rpc shape, one queue", jobs, secs(80)),
        cfg: million_rpc_cfg(),
        policy: Policy::adaptbf_default(),
        seed,
        shards: 1,
    }
}

/// `coupled`: the same jobs striped over OST pairs with one OST crash and
/// a periodic controller stall, on 2 shards — the epoch protocol, pool
/// barrier and crash resend/re-route paths all do real work. The seed
/// picks the crashing OST, the crash instant and the stall cadence.
pub fn coupled(seed: u64) -> SimSpec {
    let mut rng = Rng::new(seed);
    let jobs = million_rpc_jobs(&mut rng);
    let crash = CrashSpec {
        ost: rng.below(16) as usize,
        from: SimTime::from_millis(20_000 + rng.below(20_000)),
        for_: SimDuration::from_millis(5_000),
        resend_after: SimDuration::from_millis(200),
    };
    let stall = StallSpec {
        every: 40 + rng.below(40),
        duration: 2 + rng.below(3),
    };
    let faults = FaultPlan {
        ost_crash: Some(crash),
        controller_stall: Some(stall),
        ..FaultPlan::none()
    };
    SimSpec {
        scenario: Scenario::new(
            "coupled",
            "million_rpc shape, stripe 2, one crash, one stall",
            jobs,
            secs(80),
        ),
        cfg: ClusterConfig {
            stripe_count: 2,
            faults,
            ..million_rpc_cfg()
        },
        policy: Policy::adaptbf_default(),
        seed,
        shards: 2,
    }
}

/// `rule_storm`: 1024 single-process jobs striped over all 4 OSTs, so
/// every controller cycle allocates for and reconciles 1024 rules.
pub fn rule_storm(seed: u64) -> SimSpec {
    const JOBS: u32 = 1024;
    let mut rng = Rng::new(seed);
    let rotate = rng.below(16);
    let jobs = (0..JOBS)
        .map(|i| {
            let nodes = 1 + ((i as u64 + rotate) * 5) % 16;
            let file = 512 - rng.below(3);
            JobSpec::uniform(
                JobId(i + 1),
                nodes,
                1,
                ProcessSpec::continuous(file).with_max_inflight(4),
            )
        })
        .collect();
    SimSpec {
        scenario: Scenario::new("rule_storm", "1024 jobs on every OST", jobs, secs(40)),
        cfg: ClusterConfig {
            n_clients: 8,
            n_osts: 4,
            stripe_count: 4,
            ..ClusterConfig::default()
        },
        policy: Policy::adaptbf_default(),
        seed,
        shards: 1,
    }
}

/// Offered load of the sub-saturation rung, RPC/s.
pub const SUB_RPS: u64 = 100_000;
/// Offered load of the overload rung, RPC/s.
pub const OVER_RPS: u64 = 16_000_000;
/// Wall-clock length of each rung.
pub const RUNG: SimDuration = SimDuration(500_000_000);
/// Open-loop release step.
const STEP_US: u64 = 5_000;
/// Each rung stops releasing this long before its horizon, so a rung that
/// keeps up has drained by the cutoff even when the host stalls a thread
/// for a few milliseconds.
const DRAIN: SimDuration = SimDuration(100_000_000);

/// The `live_open` inputs: both rungs on one tuning and policy.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    /// The sub-saturation rung.
    pub sub: Scenario,
    /// The overload rung.
    pub over: Scenario,
    pub tuning: LiveTuning,
    pub policy: Policy,
    pub seed: u64,
}

/// The live testbed: one OST with 256 emulated I/O threads at 10 µs per
/// RPC (25.6M RPC/s of device capacity), so the disk is never the limit.
pub fn live_tuning() -> LiveTuning {
    LiveTuning {
        ost: OstConfig {
            n_io_threads: 256,
            disk_bw_bytes_per_s: 256 * 4096 * 100_000,
            service_jitter: 0.0,
            rpc_size: 4096,
        },
        tbf: TbfSchedulerConfig::default(),
        n_osts: 1,
        n_clients: 2,
        stripe_count: 1,
        static_rate_total: LIFTED_CEILING,
        bucket: SimDuration::from_millis(100),
        payload_bytes: 4096,
        max_batch: 512,
        pin_threads: false,
    }
}

/// Token ceiling of [`live_policy`]: far above anything one OST thread can
/// serve, so no rung is throttled by it.
const LIFTED_CEILING: f64 = 1e9;

/// AdapTBF with its token ceiling lifted above the testbed's scale, so a
/// rung measures the data path and controller, not the throttle.
pub fn live_policy() -> Policy {
    Policy::AdapTbf(paper::adaptbf().with_max_token_rate(LIFTED_CEILING))
}

/// `live_open`: 2 jobs (1 and 3 nodes) × 1 open-loop process each on one
/// OST thread under [`live_policy`], at a sub-saturation rung and an
/// overload rung. The seed shifts each process's release phase and dithers
/// chunk sizes; the total released per process is fixed by the rate.
pub fn live(seed: u64) -> LiveSpec {
    let mut rng = Rng::new(seed);
    let sub = open_loop(SUB_RPS, &mut rng);
    let over = open_loop(OVER_RPS, &mut rng);
    LiveSpec {
        sub,
        over,
        tuning: live_tuning(),
        policy: live_policy(),
        seed,
    }
}

/// Two single-process jobs each offering half of `offered_rps` in timed
/// chunks every 5 ms, for the rung's length minus [`DRAIN`].
fn open_loop(offered_rps: u64, rng: &mut Rng) -> Scenario {
    let steps = (RUNG.as_nanos() - DRAIN.as_nanos()) / (STEP_US * 1_000);
    let per_step = offered_rps as f64 / 2.0 * (STEP_US as f64 / 1e6);
    let mut chunks_for_proc = || {
        let phase_us = rng.below(STEP_US / 2);
        let mut carry = rng.below(1000) as f64 / 1000.0;
        (0..steps)
            .filter_map(|s| {
                let due = per_step + carry;
                let rpcs = due.floor() as u64;
                carry = due - rpcs as f64;
                (rpcs > 0).then(|| WorkChunk {
                    at: SimTime::from_micros(s * STEP_US + phase_us),
                    rpcs,
                })
            })
            .collect::<Vec<_>>()
    };
    let jobs = [(1, 1), (2, 3)]
        .into_iter()
        .map(|(id, nodes)| JobSpec {
            id: JobId(id),
            nodes,
            processes: vec![ProcessSpec::timed(chunks_for_proc()).with_max_inflight(8192)],
        })
        .collect();
    Scenario::new("live_open", "open-loop rung on one OST thread", jobs, RUNG)
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for name in ["bulk", "coupled", "rule_storm"] {
            let (a, b) = (sim(name, 7), sim(name, 7));
            assert_eq!(a.scenario, b.scenario, "{name}");
            assert_eq!(a.cfg, b.cfg, "{name}");
        }
        assert_eq!(live(7).over, live(7).over);
        assert_ne!(sim("coupled", 7).cfg, sim("coupled", 8).cfg);
    }

    #[test]
    fn every_coupled_seed_gets_one_crash_and_one_stall() {
        for seed in 0..64 {
            let s = coupled(seed);
            assert!(s.cfg.faults.ost_crash.is_some() && s.cfg.faults.controller_stall.is_some());
            assert!(s.cfg.faults.validate().is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn live_rungs_release_their_rate() {
        let spec = live(3);
        for (rung, rps) in [(&spec.sub, SUB_RPS), (&spec.over, OVER_RPS)] {
            let released: u64 = rung.total_rpcs();
            let expect = rps as f64 * (RUNG.as_secs_f64() - DRAIN.as_secs_f64());
            assert!((released as f64) <= expect && released as f64 > expect * 0.99);
        }
    }
}
