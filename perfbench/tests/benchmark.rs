//! The benchmark's own tests, at tiny scale. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;

use pas_perfbench::{run, Kind, Outcome, Scale};
use serde::Deserialize;

/// The trace buffer and the `pas_par` thread count are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(kind: Kind, trace: bool) -> Outcome {
    run(kind, 7, 0.05, trace, &Scale::SMOKE)
}

/// Metrics that are a pure function of the seed: they must not move
/// between runs or thread counts.
const DETERMINISTIC_END_TO_END: &[&str] = &[
    "sim_mean_ms",
    "correct_share",
    "augmented_share",
    "fresh_match_rate",
    "failed_share",
    "passthrough_share",
    "sim_p50_ms",
    "sim_p99_ms",
    "hit_rate",
];

const DETERMINISTIC_PER_LAYER: &[&str] = &[
    "embed.calls",
    "embed.memo_hit_ratio",
    "ann.probes",
    "ann.near_hit_ratio",
    "cache.lookups",
    "cache.inserts",
    "cache.evictions",
    "cache.probe_hit_ratio",
    "gateway.batch_size",
    "gateway.batch_hits",
    "gateway.sim_p50_ms",
    "gateway.sim_p99_ms",
    "mp.calls",
    "fault.failovers",
    "par.batches",
    "store.bytes",
    "cluster.forwards_per_req",
    "cluster.hedges_per_req",
    "cluster.hedge_win_ratio",
    "cluster.cache_probes_per_req",
    "cluster.repl_applied_ratio",
    "cluster.gossip_msgs_per_req",
    "setup.gen_first_pass_ratio",
    "trace.replay_miss_gap",
    "report.invariant_violations",
];

fn pick(outcome: &Outcome, names: &[&str]) -> Vec<(String, Option<f64>)> {
    names.iter().map(|n| (n.to_string(), outcome.get(n))).collect()
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

/// The parts of `BENCHMARK.json` the tests compare against.
#[derive(Deserialize)]
struct Declared {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

fn declared() -> Declared {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &[Named]) -> Vec<String> {
    list.iter().map(|n| n.name.clone()).collect()
}

#[test]
fn every_workload_runs_checks_and_reports_its_declared_metrics() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let declared = declared();
    let (end_to_end, per_layer) = (names(&declared.end_to_end), names(&declared.per_layer));
    for kind in Kind::ALL {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let o = smoke(kind, trace);
            assert!(o.correct, "{} trace={trace}: {:?}", kind.name(), o.notes);
            assert!(o.attempted > 0 && o.failed <= o.attempted);
            let emitted: Vec<String> = o.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(&emitted, names, "{} trace={trace}", kind.name());
            for m in &o.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", kind.name(), m.name, m.value);
            }
        }
        assert_eq!(declared.workloads.iter().filter(|w| w.name == kind.name()).count(), 1);
    }
}

#[test]
fn known_defects_show_in_the_output() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Near hits answer with another user's prompt.
    for kind in [Kind::Hot, Kind::Cold] {
        let o = smoke(kind, false);
        assert!(o.get("failed_share").unwrap() > 0.0, "{}", kind.name());
        assert!(o.failed > 0);
    }
    // The fleet report counts hedge and forward probes as requests.
    let fleet = smoke(Kind::Fleet, false);
    assert!(fleet.get("hit_rate").is_none(), "no fleet hit rate is published");
    assert!(
        fleet.notes.iter().any(|n| n.contains("exact + near + misses == requests fails")),
        "{:?}",
        fleet.notes
    );
    let traced = smoke(Kind::Fleet, true);
    assert!(traced.get("cluster.cache_probes_per_req").unwrap() > 1.0);
    assert!(traced.get("report.invariant_violations").unwrap() > 0.0);
}

#[test]
fn deterministic_metrics_repeat_across_runs_and_thread_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()).max(2);
    for kind in Kind::ALL {
        for (trace, names) in [(false, DETERMINISTIC_END_TO_END), (true, DETERMINISTIC_PER_LAYER)] {
            let one = pas_par::with_threads(1, || smoke(kind, trace));
            let n_a = pas_par::with_threads(nproc, || smoke(kind, trace));
            let n_b = pas_par::with_threads(nproc, || smoke(kind, trace));
            let expected = pick(&one, names);
            assert_eq!(expected, pick(&n_a, names), "{} trace={trace}: 1 vs {nproc}", kind.name());
            assert_eq!(expected, pick(&n_b, names), "{} trace={trace}: run to run", kind.name());
            let counts = |o: &Outcome| (o.attempted, o.failed);
            assert_eq!(counts(&one), counts(&n_a), "{} trace={trace}", kind.name());
            assert_eq!(counts(&one), counts(&n_b), "{} trace={trace}", kind.name());
        }
    }
}

#[test]
fn attempted_and_failed_do_not_depend_on_the_measured_time() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for kind in [Kind::Hot, Kind::Cold] {
        let short = smoke(kind, false);
        let long = run(kind, 7, 0.5, false, &Scale::SMOKE);
        assert_eq!((short.attempted, short.failed), (long.attempted, long.failed), "{}", kind.name());
    }
}
