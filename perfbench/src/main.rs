//! `perfbench`: the AdapTBF reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <bulk|coupled|rule_storm|live_open> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench compare <base.txt> <new.txt> [--bench BENCHMARK.json]
//! ```
//!
//! A measured run (`--trace 0`) repeats the workload for `--seconds` and
//! prints the end-to-end metrics; a traced run (`--trace 1`) times the
//! benchmark's own calls into each layer and prints the per-layer ledger.
//! Both print a human-readable table, a `record ` line carrying the host
//! fingerprint (what `compare` reads), and, last, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed output check
//! or path assertion exits 1.

mod gate;
mod ledger;
mod measure;
mod probe;
mod spec;
mod trace;

use adaptbf_workload::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Prefix of the line that carries a full result for `compare`.
pub const RECORD_PREFIX: &str = "record ";

const USAGE: &str = "usage: perfbench --workload <bulk|coupled|rule_storm|live_open> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     perfbench compare <base.txt> <new.txt> [--bench BENCHMARK.json]";

/// Nearest-rank `q`-quantile (`q` in 0..=1; 0.5 is the upper median for
/// even lengths); sorts `v` in place. 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let i = ((v.len() as f64 - 1.0) * q).round() as usize;
    v.get(i).copied().unwrap_or(0.0)
}

/// One-line JSON rendering (numbers in Rust's shortest round-trip form).
pub fn compact(j: &Json) -> String {
    match j {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) if n.is_finite() => format!("{n}"),
        Json::Num(_) => "null".into(),
        Json::Str(s) => format!("{s:?}"),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(compact).collect::<Vec<_>>().join(", ")
        ),
        Json::Obj(pairs) => format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|(k, v)| format!("{k:?}: {}", compact(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if spec::kind(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            spec::NAMES.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_cli(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run(&args)
}

/// Pin the sim's thread budget to what the workload is defined with
/// (never more than the host has), whatever the caller's environment says.
fn pin_threads(workload: &str, seed: u64) -> usize {
    let threads = match spec::kind(workload) {
        Some(spec::Kind::Sim) => spec::sim_threads(&spec::sim(workload, seed)),
        _ => 1,
    }
    .min(probe::nproc());
    std::env::set_var("ADAPTBF_THREADS", threads.to_string());
    std::env::remove_var("ADAPTBF_SHARDS");
    threads
}

fn run(args: &Args) -> ExitCode {
    let threads = pin_threads(&args.workload, args.seed);
    let fingerprint = probe::Fingerprint::probe(threads);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint: {}", compact(&fingerprint.to_json()));

    let (metrics, tally, facts): (Vec<(String, f64, String)>, _, _) = if args.trace {
        let l = ledger::run(&args.workload, args.seed);
        println!("spans: {} written to {}", l.span_count, l.spans_path);
        (l.metrics, l.tally, l.facts)
    } else {
        let o = match spec::kind(&args.workload) {
            Some(spec::Kind::Live) => measure::live(args.seed, args.seconds),
            _ => measure::sim(&args.workload, args.seed, args.seconds),
        };
        println!("iterations: {}", o.iterations);
        let m = o
            .metrics
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
            .collect();
        (m, o.tally, o.facts)
    };

    let violations = gate::path_violations(&args.workload, &facts);
    for v in violations.iter().chain(&tally.notes) {
        println!("FAIL {v}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    let correct =
        tally.failed == 0 && violations.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());

    let record = gate::Record {
        workload: args.workload.clone(),
        seed: args.seed,
        fingerprint,
        metrics: metrics.iter().map(|(n, v, _)| (n.clone(), *v)).collect(),
    };
    println!("{RECORD_PREFIX}{}", compact(&record.to_json()));

    // `failed_frac` travels as `failed / attempted`; the JSON metrics are
    // exactly the BENCHMARK.json set for the run's mode.
    let reported = metrics
        .iter()
        .filter(|(n, _, _)| n != "failed_frac")
        .map(|(n, v, u)| {
            (
                n.clone(),
                Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(u))]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num_u64(tally.attempted.max(1))),
        ("failed", Json::num_u64(tally.failed)),
        ("metrics", Json::Obj(reported)),
    ]);
    println!("{}", compact(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_cli(argv: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bench_path = "BENCHMARK.json".to_string();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            match it.next() {
                Some(p) => bench_path = p.clone(),
                None => files.clear(),
            }
        } else {
            files.push(a.clone());
        }
    }
    if files.len() != 2 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result = (|| -> Result<Vec<gate::Row>, String> {
        let bench = Json::parse(&read(&bench_path)?).map_err(|e| format!("{bench_path}: {e}"))?;
        let defs = gate::metric_defs(&bench)?;
        let base = gate::parse_records(&read(&files[0])?)?;
        let new = gate::parse_records(&read(&files[1])?)?;
        gate::compare(&base, &new, &defs)
    })();
    match result {
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
        Ok(rows) => {
            let mut by_workload: BTreeMap<&str, Vec<&gate::Row>> = BTreeMap::new();
            for r in &rows {
                by_workload.entry(&r.workload).or_default().push(r);
            }
            for (w, rows) in by_workload {
                println!("== {w} ==");
                for r in rows {
                    println!(
                        "  {:<24} {:>16.6} -> {:>16.6}  x{:.4}{}",
                        r.metric,
                        r.base,
                        r.new,
                        r.ratio,
                        if r.regressed { "  REGRESSED" } else { "" }
                    );
                }
            }
            if rows.iter().any(|r| r.regressed) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the runs agree on workloads, metric names,
    /// units and order.
    #[test]
    fn benchmark_json_lists_what_the_runs_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let defs = gate::metric_defs(&bench).unwrap();
        let listed = |bounded: bool| -> Vec<(&str, &str)> {
            defs.iter()
                .filter(|d| d.bound.is_some() == bounded)
                .map(|d| (d.name.as_str(), d.unit.as_str()))
                .collect()
        };
        assert_eq!(listed(true), measure::END_TO_END.to_vec());
        assert_eq!(listed(false), ledger::PER_LAYER.to_vec());
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        // `bulk` and `rule_storm` stay runnable by name but carry no bound:
        // the time all runs may take allows 50 s runs for two workloads but
        // only ~25 s for four, and 25 s runs spread by up to 0.15 of the
        // median on a 2-vCPU shared host. `coupled` and `live_open` between
        // them load every layer.
        assert_eq!(workloads, ["coupled", "live_open"]);
        assert!(workloads.iter().all(|w| spec::NAMES.contains(w)));
    }

    #[test]
    fn quantiles_pick_nearest_ranks() {
        let mut v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert_eq!(quantile(&mut v, 0.9), 5.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload coupled --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("coupled", 7, 2.5, true)
        );
        for bad in [
            "--workload nope",
            "--workload bulk --trace 2",
            "--workload bulk --seconds 0",
            "--workload bulk --seed",
            "--workload bulk --color red",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
