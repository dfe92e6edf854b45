//! The per-OST control-plane assembly shared by both executors.
//!
//! An [`OstNode`] is everything one OSS/OST owns besides its disk model:
//! the NRS/TBF scheduler, the Lustre-style `job_stats` tracker and —
//! depending on the [`Policy`] — either nothing (No BW), a set of fixed
//! rules from the global static priorities (Static BW), or a full
//! [`ControllerDriver`] (AdapTBF). The simulator embeds one node per
//! simulated OST; the live runtime moves one node into each OST thread.
//! Decentralization is structural either way: a node never references
//! another node's state.

use crate::control::{ControllerDriver, ControllerOverhead};
use crate::metrics::Metrics;
use crate::policy::Policy;
use crate::report::FaultStats;
use adaptbf_core::AllocationController;
use adaptbf_model::{JobId, Rpc, SimTime, TbfSchedulerConfig};
use adaptbf_tbf::{JobStatsTracker, NrsTbfScheduler, RpcMatcher};
use adaptbf_workload::FaultPlan;
use std::collections::BTreeMap;

/// One OST's complete control plane: scheduler + `job_stats` + (under
/// AdapTBF) its own allocation controller and rule daemon.
#[derive(Debug)]
pub struct OstNode {
    /// The NRS TBF scheduler in front of the I/O threads.
    pub scheduler: NrsTbfScheduler,
    /// The Lustre `job_stats` equivalent for this OST.
    pub job_stats: JobStatsTracker,
    /// The AdapTBF control loop (None under the baselines).
    driver: Option<ControllerDriver>,
    /// Kept so a crash can rebuild the scheduler with identical knobs.
    tbf: TbfSchedulerConfig,
    policy: Policy,
    /// `(id, nodes)` in scenario declaration order (rule installation
    /// order matters for first-match-wins semantics).
    jobs: Vec<(JobId, u64)>,
    /// `T_i` the Static BW baseline's fixed rule rates sum to.
    static_rate_total: f64,
    /// Control cycles attempted, stalled and crashed ones included: the
    /// index `controller_stall` and `stats_loss_every` key off.
    cycle: u64,
}

impl OstNode {
    /// Assemble the control plane for one OST under `policy`.
    ///
    /// `jobs` carries `(id, nodes)` in declaration order; under Static BW
    /// one fixed rule per job is installed at `now` with rate
    /// `static_rate_total · n_x / Σn`, under AdapTBF a private
    /// [`ControllerDriver`] is created (the embedder schedules its ticks).
    pub fn new(
        policy: Policy,
        tbf: TbfSchedulerConfig,
        jobs: &[(JobId, u64)],
        static_rate_total: f64,
        now: SimTime,
    ) -> Self {
        let mut scheduler = NrsTbfScheduler::new(tbf);
        let mut driver = None;
        match policy {
            Policy::NoBw => {}
            Policy::StaticBw => {
                install_static_rules(&mut scheduler, jobs, static_rate_total, now);
            }
            Policy::AdapTbf(config) => {
                let nodes: BTreeMap<JobId, u64> = jobs.iter().copied().collect();
                driver = Some(ControllerDriver::new(config, nodes));
            }
        }
        OstNode {
            scheduler,
            job_stats: JobStatsTracker::new(),
            driver,
            tbf,
            policy,
            jobs: jobs.to_vec(),
            static_rate_total,
            cycle: 0,
        }
    }

    /// A bare node with no rules and no controller (No BW with an empty
    /// job set) — the hand-wiring entry point tests and benches use.
    pub fn unruled(tbf: TbfSchedulerConfig) -> Self {
        Self::new(Policy::NoBw, tbf, &[], 0.0, SimTime::ZERO)
    }

    /// Pre-size all per-job state (scheduler queues, job-stats) for about
    /// `jobs` jobs.
    pub fn reserve_jobs(&mut self, jobs: usize) {
        self.scheduler.reserve_jobs(jobs);
        self.job_stats.reserve(jobs);
    }

    /// The policy this node was assembled under.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Admit an RPC that reached this OST: count it in `job_stats` and
    /// queue it in the scheduler.
    #[inline]
    pub fn admit(&mut self, rpc: Rpc, now: SimTime) {
        self.job_stats.record_arrival(rpc.job);
        self.scheduler.enqueue(rpc, now);
    }

    /// One fault-aware control cycle at `now`, the step both executors
    /// run once per period:
    ///
    /// 1. the cycle counter advances, whatever happens next;
    /// 2. a crashed OSS (`crashed`) takes its controller down with it,
    ///    and a stalled daemon ([`FaultPlan::cycle_stalled`]) skips the
    ///    cycle while stats keep accumulating;
    /// 3. a failed stats read ([`FaultPlan::stats_lost`]) clears
    ///    `job_stats`, so the controller sees an empty active set;
    /// 4. the controller ticks — collect stats, allocate, apply rules,
    ///    clear stats (paper Fig. 2) — and its allocation trace lands in
    ///    `metrics`: allocation and record gauges per allocated job, and
    ///    the record gauge of every idle job whose record persists.
    ///
    /// Returns whether the controller ran — rates may have changed, so
    /// the executor should dispatch again. Always `false` under the
    /// baselines.
    pub fn control_cycle(
        &mut self,
        now: SimTime,
        faults: &FaultPlan,
        crashed: bool,
        metrics: &mut Metrics,
    ) -> bool {
        let cycle = self.cycle;
        self.cycle += 1;
        if crashed || faults.cycle_stalled(cycle) {
            return false;
        }
        if faults.stats_lost(cycle) {
            self.job_stats.clear();
        }
        let Some(driver) = self.driver.as_mut() else {
            return false;
        };
        let outcome = driver.tick(&mut self.scheduler, &mut self.job_stats, now);
        for jt in &outcome.trace.jobs {
            metrics.on_allocation(jt.job, now, jt.record_after, jt.after_recompensation);
        }
        // Records of idle jobs persist; keep their gauge lines continuous.
        for (job, entry) in driver.controller.ledger().iter() {
            if outcome.trace.job(job).is_none() {
                metrics.set_record(job, now, entry.record as f64);
            }
        }
        true
    }

    /// The allocation controller, if this node runs one.
    pub fn controller(&self) -> Option<&AllocationController> {
        self.driver.as_ref().map(|d| &d.controller)
    }

    /// Control-plane overhead accounting, if this node runs a controller.
    pub fn overhead(&self) -> Option<ControllerOverhead> {
        self.driver.as_ref().map(|d| d.overhead())
    }

    /// Control cycles executed so far (0 under the baselines).
    pub fn ticks(&self) -> u64 {
        self.overhead().map_or(0, |o| o.ticks)
    }

    /// Final lending/borrowing records per job (empty under baselines).
    pub fn ledger_records(&self) -> BTreeMap<JobId, i64> {
        self.controller()
            .map(|c| c.ledger().iter().map(|(j, e)| (j, e.record)).collect())
            .unwrap_or_default()
    }

    /// The control plane crashes with its OST: the scheduler — rules,
    /// token buckets, queues — is replaced with a factory-fresh one,
    /// `job_stats` is wiped, and the rule daemon forgets its rule ids (the
    /// lending ledger deliberately survives — see
    /// [`ControllerDriver::on_ost_crash`]).
    ///
    /// Returns every RPC the crash displaced, in the order clients resend
    /// them: first `in_service` — the RPCs the dying I/O threads held,
    /// counted `lost_in_service` — then the drained backlog, counted
    /// `resent`, each part in RPC id order (per-process issue order,
    /// processes ascending) whatever order the dead OST held them in.
    /// When the resends fire is the executor's business.
    pub fn crash(&mut self, mut in_service: Vec<Rpc>, stats: &mut FaultStats) -> Vec<Rpc> {
        let mut backlog = self.scheduler.drain_pending();
        self.scheduler = NrsTbfScheduler::new(self.tbf);
        self.job_stats.clear();
        if let Some(driver) = self.driver.as_mut() {
            driver.on_ost_crash();
        }
        in_service.sort_unstable_by_key(|r| r.id.raw());
        backlog.sort_unstable_by_key(|r| r.id.raw());
        stats.count_lost_in_service(in_service.len() as u64);
        stats.resent += backlog.len() as u64;
        in_service.append(&mut backlog);
        in_service
    }

    /// The OST rejoins after a crash with empty bucket state. AdapTBF
    /// reinstalls rules on its next control cycle; Static BW's fixed rules
    /// must come back now or the policy would silently degrade to No BW on
    /// this OST for the rest of the run. No-op under No BW / AdapTBF.
    pub fn recover(&mut self, now: SimTime) {
        if matches!(self.policy, Policy::StaticBw) {
            install_static_rules(&mut self.scheduler, &self.jobs, self.static_rate_total, now);
        }
    }
}

/// Install the Static BW baseline's fixed rules (rate `T_i · p_x` from the
/// global static priorities `p_x = n_x / Σn`) on one scheduler — at build
/// time, and again when a crashed OST rejoins with empty bucket state.
pub fn install_static_rules(
    scheduler: &mut NrsTbfScheduler,
    jobs: &[(JobId, u64)],
    rate_total: f64,
    now: SimTime,
) {
    let total: u64 = jobs.iter().map(|&(_, n)| n).sum();
    for &(job, nodes) in jobs {
        let rate = rate_total * nodes as f64 / total as f64;
        scheduler.start_rule(
            job.label(),
            RpcMatcher::Job(job),
            rate,
            nodes.min(u32::MAX as u64) as u32,
            now,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::config::paper;
    use adaptbf_model::{ClientId, ProcId, RpcId};

    fn jobs() -> Vec<(JobId, u64)> {
        vec![(JobId(1), 1), (JobId(2), 3)]
    }

    fn rpc(job: u32, id: u64) -> Rpc {
        Rpc::new(RpcId(id), JobId(job), ClientId(0), ProcId(0), SimTime::ZERO)
    }

    #[test]
    fn no_bw_installs_nothing() {
        let node = OstNode::new(
            Policy::NoBw,
            TbfSchedulerConfig::default(),
            &jobs(),
            1000.0,
            SimTime::ZERO,
        );
        assert_eq!(node.scheduler.rules().len(), 0);
        assert!(node.controller().is_none());
        assert_eq!(node.ticks(), 0);
        assert!(node.ledger_records().is_empty());
    }

    #[test]
    fn static_bw_installs_priority_proportional_rules() {
        let node = OstNode::new(
            Policy::StaticBw,
            TbfSchedulerConfig::default(),
            &jobs(),
            1000.0,
            SimTime::ZERO,
        );
        assert_eq!(node.scheduler.rules().len(), 2);
        let r1 = node.scheduler.rules().get_by_name("app1.node1").unwrap();
        let r2 = node.scheduler.rules().get_by_name("app2.node2").unwrap();
        assert!((r1.rate_tps - 250.0).abs() < 1e-9);
        assert!((r2.rate_tps - 750.0).abs() < 1e-9);
        assert_eq!(r2.weight, 3);
        assert!(node.overhead().is_none());
    }

    #[test]
    fn adaptbf_ticks_allocate_and_ledger_is_readable() {
        let mut node = OstNode::new(
            Policy::adaptbf_default(),
            TbfSchedulerConfig::default(),
            &jobs(),
            paper::MAX_TOKEN_RATE,
            SimTime::ZERO,
        );
        for i in 0..50 {
            node.admit(rpc(2, i), SimTime::ZERO);
        }
        let mut m = metrics();
        assert!(node.control_cycle(SimTime::from_millis(100), &FaultPlan::none(), false, &mut m));
        assert!(m
            .allocations()
            .get(JobId(2))
            .is_some_and(|s| s.get(1) > 0.0));
        assert_eq!(node.scheduler.rules().len(), 1);
        assert_eq!(node.ticks(), 1);
        assert!(node.ledger_records().contains_key(&JobId(2)));
    }

    #[test]
    fn baseline_tick_is_none() {
        let mut node = OstNode::new(
            Policy::StaticBw,
            TbfSchedulerConfig::default(),
            &jobs(),
            1000.0,
            SimTime::ZERO,
        );
        let mut m = metrics();
        assert!(!node.control_cycle(SimTime::from_millis(100), &FaultPlan::none(), false, &mut m));
        assert_eq!(node.ticks(), 0);
    }

    #[test]
    fn crash_reset_drains_and_recover_reinstalls_static_rules() {
        let mut node = OstNode::new(
            Policy::StaticBw,
            TbfSchedulerConfig::default(),
            &jobs(),
            1000.0,
            SimTime::ZERO,
        );
        for i in [3, 0, 2, 1] {
            node.scheduler.enqueue(rpc(1, i), SimTime::ZERO);
        }
        let mut stats = FaultStats::default();
        let lost = node.crash(vec![rpc(1, 9), rpc(1, 8)], &mut stats);
        assert_eq!(lost.len(), 6, "whole backlog drained after the in-service");
        assert_eq!((stats.resent, stats.lost_in_service), (6, 2));
        let ids: Vec<u64> = lost.iter().map(|r| r.id.raw()).collect();
        assert_eq!(ids, [8, 9, 0, 1, 2, 3], "resends go out in id order");
        assert_eq!(node.scheduler.rules().len(), 0, "rules gone with the OST");
        assert_eq!(node.job_stats.period_total(), 0, "stats wiped");
        node.recover(SimTime::from_secs(1));
        assert_eq!(node.scheduler.rules().len(), 2, "static rules reinstalled");
    }

    #[test]
    fn adaptbf_crash_keeps_ledger_but_resets_daemon() {
        let mut node = OstNode::new(
            Policy::adaptbf_default(),
            TbfSchedulerConfig::default(),
            &jobs(),
            paper::MAX_TOKEN_RATE,
            SimTime::ZERO,
        );
        let none = FaultPlan::none();
        let mut m = metrics();
        node.admit(rpc(1, 0), SimTime::ZERO);
        node.control_cycle(SimTime::from_millis(100), &none, false, &mut m);
        let ledger_before = node.ledger_records();
        node.crash(Vec::new(), &mut FaultStats::default());
        assert_eq!(node.ledger_records(), ledger_before, "ledger survives");
        node.recover(SimTime::from_millis(200));
        assert_eq!(node.scheduler.rules().len(), 0, "AdapTBF waits for a tick");
        // The next cycle recreates rules against the fresh scheduler
        // without panicking on stale rule ids.
        node.admit(rpc(1, 1), SimTime::from_millis(250));
        assert!(node.control_cycle(SimTime::from_millis(300), &none, false, &mut m));
        assert_eq!(node.scheduler.rules().len(), 1);
    }

    fn adaptbf_node() -> OstNode {
        OstNode::new(
            Policy::adaptbf_default(),
            TbfSchedulerConfig::default(),
            &jobs(),
            paper::MAX_TOKEN_RATE,
            SimTime::ZERO,
        )
    }

    fn metrics() -> Metrics {
        Metrics::new(adaptbf_model::SimDuration::from_millis(100))
    }

    #[test]
    fn stalled_cycle_advances_the_counter_without_a_tick() {
        let faults = FaultPlan {
            controller_stall: Some(adaptbf_workload::StallSpec {
                every: 3,
                duration: 1,
            }),
            ..FaultPlan::none()
        };
        let mut node = adaptbf_node();
        let mut m = metrics();
        let ran: Vec<bool> = (1..=6)
            .map(|c| {
                node.admit(rpc(1, c), SimTime::ZERO);
                node.control_cycle(SimTime::from_millis(100 * c), &faults, false, &mut m)
            })
            .collect();
        assert_eq!(ran, [true, true, false, true, true, false]);
        assert_eq!(node.cycle, 6, "stalled cycles count too");
        assert_eq!(node.ticks(), 4, "stalled cycles never tick");
        assert!(
            node.job_stats.period_total() > 0,
            "a stall leaves the period's stats for the next healthy cycle"
        );
    }

    #[test]
    fn stats_loss_clears_job_stats_then_ticks() {
        let faults = FaultPlan {
            stats_loss_every: Some(1),
            ..FaultPlan::none()
        };
        let mut node = adaptbf_node();
        let mut m = metrics();
        node.admit(rpc(1, 0), SimTime::ZERO);
        assert!(node.control_cycle(SimTime::from_millis(100), &faults, false, &mut m));
        assert_eq!(node.ticks(), 1, "the controller still runs");
        assert_eq!(node.scheduler.rules().len(), 0, "…on an empty active set");
        assert!(m.allocations().get(JobId(1)).is_none(), "nothing allocated");
    }

    #[test]
    fn crashed_node_skips_the_cycle() {
        let mut node = adaptbf_node();
        let mut m = metrics();
        node.admit(rpc(1, 0), SimTime::ZERO);
        assert!(!node.control_cycle(SimTime::from_millis(100), &FaultPlan::none(), true, &mut m));
        assert_eq!((node.cycle, node.ticks()), (1, 0));
        assert_eq!(node.job_stats.period_total(), 1, "stats untouched");
    }

    #[test]
    fn healthy_cycle_folds_the_trace_into_metrics() {
        let mut node = adaptbf_node();
        let mut m = metrics();
        // Job 1 is starved of priority but busy; job 2 barely uses its
        // share and lends the surplus.
        for i in 0..400 {
            node.admit(rpc(1, i), SimTime::ZERO);
        }
        node.admit(rpc(2, 400), SimTime::ZERO);
        let none = FaultPlan::none();
        assert!(node.control_cycle(SimTime::from_millis(100), &none, false, &mut m));
        let lent = node.ledger_records()[&JobId(2)];
        assert!(lent > 0, "job 2 lends: record {lent}");
        // Job 2 goes idle: it gets no allocation, but its ledger record
        // keeps its gauge line continuous.
        node.admit(rpc(1, 401), SimTime::from_millis(150));
        assert!(node.control_cycle(SimTime::from_millis(200), &none, false, &mut m));
        let alloc = m.allocations();
        assert!(alloc.get(JobId(1)).is_some_and(|s| s.get(2) > 0.0));
        assert!(alloc.get(JobId(2)).is_some_and(|s| s.get(2) == 0.0));
        let idle = m.records().get(JobId(2)).map_or(0.0, |s| s.get(2));
        assert_eq!(idle, lent as f64, "idle job's record gauged");
    }

    #[test]
    fn unruled_node_is_empty() {
        let node = OstNode::unruled(TbfSchedulerConfig::default());
        assert_eq!(node.scheduler.rules().len(), 0);
        assert!(matches!(node.policy(), Policy::NoBw));
    }
}
