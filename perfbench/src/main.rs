//! Command line of the PAS serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot|cold|fleet|restart|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger. The gated timings are process CPU time with one `pas_par`
//! thread; every other pass uses `pas_par`'s default worker count (the
//! available parallelism). A provenance line and a human-readable table
//! go to standard error; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--workload all` the four workloads run in sequence in this process
//! and metric names carry the workload as a prefix.

use std::collections::BTreeMap;
use std::process::ExitCode;

use pas_perfbench::{run, Kind, Outcome, Scale};
use serde::Serialize;

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut kinds = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kinds = Some(if v == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?]
                });
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        kinds: kinds.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The commit of the checkout, read from `.git` beside the benchmark
/// directory (`unknown` outside a git checkout).
fn commit() -> String {
    let git = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".into() };
    let Some(name) = head.strip_prefix("ref: ") else { return head };
    read(&git.join(name))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[derive(Serialize)]
struct Provenance {
    nproc: usize,
    threads: usize,
    backend: String,
    arch: String,
    os: String,
    commit: String,
}

fn provenance() -> Provenance {
    Provenance {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: pas_par::threads(),
        backend: pas_kernels::backend().name().to_string(),
        arch: std::env::consts::ARCH.to_string(),
        os: std::env::consts::OS.to_string(),
        commit: commit(),
    }
}

#[derive(Serialize)]
struct ProvenanceLine {
    provenance: Provenance,
}

#[derive(Serialize)]
struct Value {
    value: f64,
    unit: String,
}

/// The result line; non-finite values print as `null`.
#[derive(Serialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("plain data serializes")
}

fn table(kind: Kind, outcome: &Outcome) {
    eprintln!("\n== {} ==", kind.name());
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  correct {}  attempted {}  failed {}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for note in &outcome.notes {
        eprintln!("  note: {note}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = provenance();
    let prov_line = json(&ProvenanceLine { provenance: prov });
    eprintln!("{prov_line}");
    println!("{prov_line}");

    let single = args.kinds.len() == 1;
    let mut summary = Summary { correct: true, attempted: 0, failed: 0, metrics: BTreeMap::new() };
    for &kind in &args.kinds {
        let outcome = run(kind, args.seed, args.seconds, args.trace, &Scale::BENCH);
        table(kind, &outcome);
        summary.correct &= outcome.correct;
        summary.attempted += outcome.attempted;
        summary.failed += outcome.failed;
        // A single workload reports exactly its gated set; `all` adds the
        // printed-only figures under workload-prefixed names.
        let extra: &[_] = if single { &[] } else { &outcome.extra };
        for m in outcome.metrics.iter().chain(extra) {
            let name =
                if single { m.name.to_string() } else { format!("{}.{}", kind.name(), m.name) };
            summary.metrics.insert(name, Value { value: m.value, unit: m.unit.to_string() });
        }
    }
    println!("{}", json(&summary));
    ExitCode::SUCCESS
}
