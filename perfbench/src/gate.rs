//! The benchmark's gates: output checks, path assertions and the
//! fingerprint-gated comparison of two results. Each gate has a known-bad
//! input in the tests below that trips it.

use crate::probe::Fingerprint;
use adaptbf_analysis::resilience::conservation_ok;
use adaptbf_node::RunReport;
use adaptbf_workload::json::Json;
use std::collections::BTreeMap;

/// Checked operations and the ones that failed (`failed / attempted` is
/// the `failed_frac` the benchmark reports).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count `ops` checked operations of which `bad` failed.
    pub fn count(&mut self, ops: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if bad > 0 {
            self.failed += bad;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One sim run is one checked operation. It fails when its report digest
/// differs from the 1-shard reference for the same workload and seed, or
/// when its `FaultStats` partition does not balance.
pub fn check_sim_run(t: &mut Tally, digest: &str, reference: &str, report: &RunReport) {
    let same = digest == reference;
    let balanced = conservation_ok(report);
    t.count(1, u64::from(!(same && balanced)), || {
        format!(
            "sim run: digest {} reference, fault partition {} ({:?})",
            if same { "matches" } else { "differs from" },
            if balanced { "balances" } else { "leaks" },
            report.fault_stats
        )
    });
}

/// The live books of one rung, as read from a `LiveReport`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveBooks {
    /// RPCs the rung's patterns released within the horizon.
    pub released: u64,
    /// RPCs served (folded report).
    pub served: u64,
    /// Σ per-OST served tallies.
    pub served_osts: u64,
    /// Issued, as the collector counted it.
    pub issued_collector: u64,
    /// Issued, as the client threads counted it.
    pub issued_procs: u64,
    /// Completions the client threads received.
    pub completed: u64,
    /// Displaced RPCs the horizon cut off.
    pub undelivered: u64,
    /// `conservation_ok` on the rung's report.
    pub partition_ok: bool,
}

impl LiveBooks {
    pub fn of(live: &adaptbf_runtime::LiveReport) -> Self {
        LiveBooks {
            released: live.report.per_job.values().map(|o| o.released).sum(),
            served: live.total_served(),
            served_osts: live.served_per_ost.iter().sum(),
            issued_collector: live.issued.values().sum(),
            issued_procs: live.procs.iter().map(|p| p.issued).sum(),
            completed: live.procs.iter().map(|p| p.completed).sum(),
            undelivered: live.report.fault_stats.undelivered,
            partition_ok: conservation_ok(&live.report),
        }
    }
}

/// The conservation identities of one rung, one checked operation each:
/// both issued counts agree; the report and the OST tallies agree on
/// served; `issued = served + in-flight + undelivered` with a
/// non-negative in-flight that the clients' outstanding count covers;
/// and the fault partition balances.
pub fn check_live_books(t: &mut Tally, rung: &str, b: &LiveBooks) {
    let outstanding = b.issued_procs.saturating_sub(b.completed);
    let in_flight = b.issued_procs as i128 - b.served as i128 - b.undelivered as i128;
    let checks = [
        ("issued counts agree", b.issued_collector == b.issued_procs),
        ("served tallies agree", b.served == b.served_osts),
        (
            "issued = served + in-flight + undelivered",
            in_flight >= 0 && in_flight <= outstanding as i128 && b.completed <= b.served,
        ),
        ("fault partition balances", b.partition_ok),
    ];
    for (what, ok) in checks {
        t.count(1, u64::from(!ok), || format!("{rung}: {what} fails: {b:?}"));
    }
}

/// At the sub-saturation rung every released RPC is one checked
/// operation; each one left unserved fails.
pub fn check_live_sub(t: &mut Tally, b: &LiveBooks) {
    let unserved = b.released.saturating_sub(b.served);
    t.count(b.released, unserved, || {
        format!(
            "sub rung: {unserved} of {} released RPCs unserved ({b:?})",
            b.released
        )
    });
}

/// What a run observed about the paths it exercised.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathFacts {
    pub epochs: u64,
    pub resent: u64,
    pub rerouted: u64,
    /// Σ controller overhead / run wall.
    pub ctl_share: f64,
    /// Overload rung: served vs released (offered within the horizon).
    pub over_served: u64,
    pub over_offered: u64,
    /// Sub-saturation rung: served / released.
    pub sub_served_frac: f64,
}

/// The path each workload claims to measure; a violation fails the run.
pub fn path_violations(workload: &str, f: &PathFacts) -> Vec<String> {
    let mut v = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            v.push(format!("{workload}: expected {what}; observed {f:?}"));
        }
    };
    match workload {
        "coupled" => {
            need(f.epochs > 0, "cluster.epochs > 0");
            need(f.resent > 0, "cluster.resent > 0");
            need(f.rerouted > 0, "cluster.rerouted > 0");
        }
        "bulk" => {
            need(f.epochs == 0, "cluster.epochs == 0");
            need(f.ctl_share < 0.15, "node.ctl_share < 0.15");
        }
        "rule_storm" => need(f.ctl_share > 0.4, "node.ctl_share > 0.4"),
        "live_open" => {
            need(f.over_served < f.over_offered, "overload served < offered");
            need(f.sub_served_frac == 1.0, "runtime.served_frac.sub == 1");
        }
        _ => need(false, "a known workload"),
    }
    v
}

/// Whether a lower or a higher value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end metrics carry a regression bound (share of the base
    /// median); per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The `end_to_end` and `per_layer` entries of a parsed `BENCHMARK.json`.
pub fn metric_defs(bench: &Json) -> Result<Vec<MetricDef>, String> {
    let mut defs = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let items = bench
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for m in items {
            let s = |k: &str| m.get(k).and_then(Json::as_str);
            let name = s("name").ok_or("metric without a name")?;
            let better = match s("better") {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: bad `better` {other:?}")),
            };
            defs.push(MetricDef {
                name: name.to_string(),
                unit: s("unit").unwrap_or("").to_string(),
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(defs)
}

/// One benchmark result as printed on its `record` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub fingerprint: Fingerprint,
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("seed", Json::num_u64(self.seed)),
            ("fingerprint", self.fingerprint.to_json()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        let metrics = match j.get("metrics")? {
            Json::Obj(pairs) => pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
            _ => return None,
        };
        Some(Record {
            workload: j.get("workload")?.as_str()?.to_string(),
            seed: j.get("seed")?.as_u64()?,
            fingerprint: Fingerprint::from_json(j.get("fingerprint")?)?,
            metrics,
        })
    }
}

/// The `record` lines in a captured benchmark output.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter_map(|l| l.strip_prefix(crate::RECORD_PREFIX))
        .map(|l| {
            Json::parse(l)
                .ok()
                .and_then(|j| Record::from_json(&j))
                .ok_or_else(|| format!("unreadable record line: {l}"))
        })
        .collect()
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    /// Worse than the base by more than the metric's bound.
    pub regressed: bool,
}

/// Compare the per-workload medians of two sets of records. Refuses —
/// returns `Err` and no ratio at all — unless every record on both sides
/// was measured on the same host and build (fingerprints equal but for
/// `git_rev`).
pub fn compare(base: &[Record], new: &[Record], defs: &[MetricDef]) -> Result<Vec<Row>, String> {
    let first = base
        .first()
        .or(new.first())
        .ok_or("no records to compare")?;
    if let Some(other) = base
        .iter()
        .chain(new)
        .find(|r| r.fingerprint.host_key() != first.fingerprint.host_key())
    {
        return Err(format!(
            "fingerprints differ, refusing to compare:\n  {:?}\n  {:?}",
            first.fingerprint, other.fingerprint
        ));
    }
    let mut rows = Vec::new();
    let workloads: std::collections::BTreeSet<&str> =
        base.iter().map(|r| r.workload.as_str()).collect();
    for w in workloads {
        for def in defs {
            let (Some(b), Some(n)) = (median_of(base, w, &def.name), median_of(new, w, &def.name))
            else {
                continue;
            };
            let ratio = if b == 0.0 { f64::NAN } else { n / b };
            let worse = match def.better {
                Better::Lower => n - b,
                Better::Higher => b - n,
            };
            let regressed = def
                .bound
                .is_some_and(|bound| b != 0.0 && worse / b.abs() > bound);
            rows.push(Row {
                workload: w.to_string(),
                metric: def.name.clone(),
                base: b,
                new: n,
                ratio,
                regressed,
            });
        }
    }
    Ok(rows)
}

fn median_of(records: &[Record], workload: &str, metric: &str) -> Option<f64> {
    let mut v: Vec<f64> = records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect();
    (!v.is_empty()).then(|| crate::quantile(&mut v, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_node::FaultStats;
    use adaptbf_sim::{report_digest, Cluster};
    use adaptbf_workload::scenarios;

    fn small_report() -> RunReport {
        let scenario = scenarios::million_rpc_scaled(1.0 / 128.0);
        let cfg = adaptbf_sim::cluster::ClusterConfig {
            n_osts: 4,
            ..Default::default()
        };
        let policy = adaptbf_node::Policy::adaptbf_default();
        let out = Cluster::build_with(&scenario, policy, 1, cfg)
            .shards(1)
            .run();
        RunReport::from_run(
            scenario.name.clone(),
            policy.name(),
            scenario.duration,
            out.metrics,
            &scenario.job_ids(),
            out.overheads,
            out.fault_stats,
        )
    }

    #[test]
    fn a_clean_run_passes() {
        let report = small_report();
        let digest = report_digest(&report);
        let mut t = Tally::default();
        check_sim_run(&mut t, &digest, &digest, &report);
        assert_eq!((t.attempted, t.failed), (1, 0));
    }

    #[test]
    fn a_corrupted_digest_fails() {
        let report = small_report();
        let reference = report_digest(&report);
        let corrupted = reference.replacen("total_served=", "total_served=1", 1);
        let mut t = Tally::default();
        check_sim_run(&mut t, &corrupted, &reference, &report);
        assert!(t.failed_frac() > 0.0);
    }

    #[test]
    fn an_unbalanced_fault_partition_fails() {
        let mut report = small_report();
        let digest = report_digest(&report);
        report.fault_stats = FaultStats {
            resent: 3,
            lost_in_service: 5,
            ..FaultStats::default()
        };
        let mut t = Tally::default();
        check_sim_run(&mut t, &digest, &digest, &report);
        assert!(t.failed_frac() > 0.0);
    }

    fn books() -> LiveBooks {
        LiveBooks {
            released: 1000,
            served: 1000,
            served_osts: 1000,
            issued_collector: 1000,
            issued_procs: 1000,
            completed: 990,
            undelivered: 0,
            partition_ok: true,
        }
    }

    #[test]
    fn live_books_balance_and_break() {
        let mut t = Tally::default();
        check_live_books(&mut t, "sub", &books());
        check_live_sub(&mut t, &books());
        assert_eq!(t.failed, 0);
        for broken in [
            LiveBooks {
                served_osts: 999,
                ..books()
            },
            LiveBooks {
                issued_collector: 1001,
                ..books()
            },
            LiveBooks {
                served: 1001,
                served_osts: 1001,
                ..books()
            },
            LiveBooks {
                partition_ok: false,
                ..books()
            },
        ] {
            let mut t = Tally::default();
            check_live_books(&mut t, "sub", &broken);
            assert!(t.failed_frac() > 0.0, "{broken:?}");
        }
        let mut t = Tally::default();
        check_live_sub(
            &mut t,
            &LiveBooks {
                served: 998,
                served_osts: 998,
                ..books()
            },
        );
        assert_eq!(t.failed, 2);
    }

    #[test]
    fn path_assertions_trip_on_the_wrong_path() {
        let coupled = PathFacts {
            epochs: 10,
            resent: 5,
            rerouted: 7,
            ..PathFacts::default()
        };
        assert!(path_violations("coupled", &coupled).is_empty());
        assert_eq!(
            path_violations(
                "coupled",
                &PathFacts {
                    epochs: 0,
                    ..coupled
                }
            )
            .len(),
            1
        );
        let bulk = PathFacts {
            ctl_share: 0.07,
            ..PathFacts::default()
        };
        assert!(path_violations("bulk", &bulk).is_empty());
        assert!(!path_violations("bulk", &PathFacts { epochs: 3, ..bulk }).is_empty());
        assert!(!path_violations("rule_storm", &bulk).is_empty());
        let live = PathFacts {
            over_served: 400,
            over_offered: 1000,
            sub_served_frac: 1.0,
            ..PathFacts::default()
        };
        assert!(path_violations("live_open", &live).is_empty());
        let not_overloaded = PathFacts {
            over_served: 1000,
            ..live
        };
        assert!(!path_violations("live_open", &not_overloaded).is_empty());
    }

    fn defs() -> Vec<MetricDef> {
        vec![
            MetricDef {
                name: "rpcs_per_s".into(),
                unit: "rpc/s".into(),
                better: Better::Higher,
                bound: Some(0.1),
            },
            MetricDef {
                name: "cpu_us_per_rpc".into(),
                unit: "us/rpc".into(),
                better: Better::Lower,
                bound: Some(0.1),
            },
        ]
    }

    fn record(rps: f64, cpu: f64) -> Record {
        Record {
            workload: "bulk".into(),
            seed: 42,
            fingerprint: Fingerprint {
                nproc: 2,
                cpu_model: "cpu".into(),
                rustc: "rustc 1".into(),
                git_rev: "aaaa".into(),
                profile: "release".into(),
                threads: 1,
            },
            metrics: [
                ("rpcs_per_s".to_string(), rps),
                ("cpu_us_per_rpc".to_string(), cpu),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn a_twenty_percent_regression_is_flagged() {
        let base = vec![
            record(1000.0, 1.0),
            record(1010.0, 1.01),
            record(990.0, 0.99),
        ];
        let same = compare(&base, &base, &defs()).unwrap();
        assert!(same.iter().all(|r| !r.regressed));
        for worse in [record(800.0, 1.0), record(1000.0, 1.2)] {
            let rows = compare(&base, &[worse], &defs()).unwrap();
            assert_eq!(rows.iter().filter(|r| r.regressed).count(), 1, "{rows:?}");
        }
        let better = compare(&base, &[record(1200.0, 0.8)], &defs()).unwrap();
        assert!(better.iter().all(|r| !r.regressed));
    }

    #[test]
    fn different_hosts_are_not_compared() {
        let base = vec![record(1000.0, 1.0)];
        let mut other = record(1000.0, 1.0);
        other.fingerprint.git_rev = "bbbb".into();
        assert!(
            compare(&base, &[other.clone()], &defs()).is_ok(),
            "revs may differ"
        );
        other.fingerprint.nproc = 4;
        assert!(compare(&base, &[other], &defs()).is_err());
    }

    #[test]
    fn records_round_trip_through_their_line() {
        let r = record(1234.5678, 0.25);
        let line = format!("{}{}", crate::RECORD_PREFIX, crate::compact(&r.to_json()));
        assert_eq!(parse_records(&line).unwrap(), vec![r]);
    }
}
