//! The PAS serving benchmark.
//!
//! Four workloads, each generated from the benchmark seed:
//!
//! - `hot` — template Zipf traffic, 40 streams each through a fresh
//!   gateway (2 replicas, capacity 512, τ 0.15): the cache-hit path.
//! - `cold` — the same arrivals carrying `pas_data` corpus prompts: embed,
//!   ANN probe, insert/evict, `M_p`, the fault wrapper and the parallel
//!   fan-out all work.
//! - `fleet` — the replication-plane chaos soak (6 nodes, lossy network,
//!   partition, crash, leave, rejoin) on template traffic.
//! - `restart` — `cold` traffic through a write-through persistent cache
//!   (capacity 4096): serve half, checkpoint, drop, warm reopen, serve
//!   half.
//!
//! An untraced run ([`run`] with `trace == false`) serves the workload
//! through the real `Gateway::run` / `Cluster::run` for a fixed wall
//! time, checks every response, and reports the end-to-end metrics. Its
//! gated timings are process CPU time on one `pas_par` thread ([`cpu`]). A
//! traced run reports the per-layer ledger instead: spans around the
//! `M_p` calls of the real run, a serial replay through the gateway's
//! layers ([`ledger`]), and direct timings of the build stages and the
//! store.

pub mod cpu;
pub mod ledger;
pub mod serve;
pub mod setup;
pub mod trace;
pub mod workload;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pas_core::Pas;

use serve::{Checks, Fresh, Pass};
use setup::StageTimes;
use trace::{ratio, TimedOptimizer};
use workload::Workload;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot = 1,
    Cold = 2,
    Fleet = 3,
    Restart = 4,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Hot, Kind::Cold, Kind::Fleet, Kind::Restart];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "hot",
            Kind::Cold => "cold",
            Kind::Fleet => "fleet",
            Kind::Restart => "restart",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Workload sizes and repetition counts.
#[derive(Debug, Clone)]
pub struct Scale {
    pub hot_requests: usize,
    pub cold_requests: usize,
    pub fleet_requests_per_node: usize,
    pub restart_requests: usize,
    /// Times the set-up (PAS build + workload generation) runs, spread
    /// through the run; `setup_s` is the median.
    pub setup_reps: usize,
    /// Least number of timed passes, however long they take.
    pub min_passes: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const BENCH: Scale = Scale {
        hot_requests: 40_000,
        cold_requests: 6_000,
        fleet_requests_per_node: 2_000,
        restart_requests: 6_000,
        setup_reps: 5,
        min_passes: 3,
    };

    /// Tiny sizes for the benchmark's own tests.
    pub const SMOKE: Scale = Scale {
        hot_requests: 800,
        cold_requests: 300,
        fleet_requests_per_node: 150,
        restart_requests: 300,
        setup_reps: 2,
        min_passes: 2,
    };

    fn requests(&self, kind: Kind) -> usize {
        match kind {
            Kind::Hot => self.hot_requests,
            Kind::Cold => self.cold_requests,
            Kind::Fleet => self.fleet_requests_per_node * workload::FLEET_NODES,
            Kind::Restart => self.restart_requests,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end set (untraced run) or the per-layer set (traced).
    pub metrics: Vec<Metric>,
    /// Further end-to-end figures that are printed but not gated: ones
    /// that are zero by construction on some workload, read off log₂
    /// latency buckets, or withheld on `fleet`.
    pub extra: Vec<Metric>,
    /// Failed invariants, low trace coverage and other findings.
    pub notes: Vec<String>,
}

impl Metric {
    pub const fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().chain(&self.extra).find(|m| m.name == name).map(|m| m.value)
    }
}

/// Where restart passes keep their segment logs and traced runs write
/// their spans: inside the benchmark's own directory.
pub fn work_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"))
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process high-water resident set size in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// One set-up: the PAS build plus the workload's generation, with the
/// CPU seconds it used on one `pas_par` thread.
fn set_up(kind: Kind, seed: u64, scale: &Scale) -> (Pas, Workload, f64, StageTimes) {
    let ((pas, stages, workload), cpu_s) = cpu::one_thread(|| {
        let (pas, stages) = setup::build_pas();
        (pas, stages, workload::prepare(kind, seed, scale))
    });
    (pas, workload, cpu_s, stages)
}

/// The model and workload a run serves, from its first set-up.
struct Prepared {
    pas: Pas,
    workload: Workload,
}

/// Set-up CPU times. The first set-up happens before the measurement;
/// the others are spread evenly through it, so that a slow or fast spell
/// of the host does not decide a whole run's `setup_s`.
struct SetupSamples {
    kind: Kind,
    seed: u64,
    reps: usize,
    scale: Scale,
    start: Instant,
    seconds: f64,
    totals: Vec<f64>,
    stages: Vec<StageTimes>,
}

impl SetupSamples {
    /// Takes another sample when the next one is due.
    fn tick(&mut self) {
        let due = self.seconds * self.totals.len() as f64 / self.reps as f64;
        if self.totals.len() < self.reps && self.start.elapsed().as_secs_f64() >= due {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let (_, _, total, stages) = set_up(self.kind, self.seed, &self.scale);
        self.totals.push(total);
        self.stages.push(stages);
    }

    /// Takes any samples still missing; returns the median set-up CPU
    /// time and the median wall time of each stage.
    fn finish(mut self) -> (f64, StageTimes) {
        while self.totals.len() < self.reps {
            self.sample();
        }
        let stages = &self.stages;
        let med = |f: fn(&StageTimes) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
        let times = StageTimes {
            corpus_s: med(|s| s.corpus_s),
            select_s: med(|s| s.select_s),
            generate_s: med(|s| s.generate_s),
            sft_s: med(|s| s.sft_s),
            gen_first_pass_ratio: stages[0].gen_first_pass_ratio,
        };
        (median(&self.totals), times)
    }
}

/// Runs `kind` for about `seconds` of measurement: the end-to-end set
/// when `trace` is false, the per-layer ledger when it is true.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Outcome {
    let (pas, workload, first, stages) = set_up(kind, seed, scale);
    debug_assert_eq!(workload.len(), scale.requests(kind));
    let setup = SetupSamples {
        kind,
        seed,
        reps: scale.setup_reps.max(1),
        scale: scale.clone(),
        start: Instant::now(),
        seconds,
        totals: vec![first],
        stages: vec![stages],
    };
    let prepared = Prepared { pas, workload };
    let dir = work_dir().join(format!("store-{}-{}", kind.name(), std::process::id()));
    let outcome = if trace {
        traced(&prepared, &dir, seconds, scale, setup)
    } else {
        untraced(&prepared, &dir, seconds, scale, setup)
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn same(a: &Pass, b: &Pass) -> bool {
    a.responses == b.responses && a.report.gateway() == b.report.gateway()
}

/// The shared verdict: correct when no response holds bytes the program
/// cannot have produced, the invariants that hold today still hold, and
/// every pass answered the same. `attempted` and `failed` count each of
/// the workload's requests once: every repeat pass is checked to answer
/// byte for byte as the first, so both counts depend on the seed alone,
/// not on how many passes fit in the measured time.
fn verdict(checks: &Checks, stable: bool) -> (bool, u64, u64) {
    let correct = checks.unknown == 0 && checks.hard_invariants_ok && stable;
    (correct, checks.requests, checks.failed)
}

fn end_to_end_extra(kind: Kind, checks: &Checks, pass: &Pass, recovery_s: f64) -> Vec<Metric> {
    let n = checks.requests as f64;
    let g = pass.report.gateway();
    let mut extra = vec![
        Metric::new("failed_share", checks.failed as f64 / n, "ratio"),
        Metric::new("passthrough_share", checks.passthrough as f64 / n, "ratio"),
        Metric::new("sim_p50_ms", g.p50_ms() as f64, "ms"),
        Metric::new("sim_p99_ms", g.p99_ms() as f64, "ms"),
    ];
    if kind != Kind::Fleet {
        extra.push(Metric::new("hit_rate", g.hit_rate(), "ratio"));
    }
    if kind == Kind::Restart {
        extra.push(Metric::new("recovery_s", recovery_s, "s"));
    }
    extra
}

/// Sample count and spread of a per-pass figure.
fn pass_summary(name: &str, values: &[f64], unit: &str) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |f: f64| v[((v.len() - 1) as f64 * f).round() as usize];
    format!(
        "{name} over {} samples: min {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1} {unit}",
        v.len(),
        v[0],
        q(0.25),
        median(&v),
        q(0.75),
        v[v.len() - 1]
    )
}

fn notes(checks: &Checks) -> Vec<String> {
    let mut notes: Vec<String> =
        checks.violations.iter().map(|v| format!("report invariant: {v}")).collect();
    if checks.unknown > 0 {
        notes.push(format!("{} responses match no workload prompt's fresh output", checks.unknown));
    }
    notes
}

/// Every this many timed one-thread passes, an untraced run also serves
/// one pass at `pas_par`'s default thread count for the printed wall
/// throughput.
const DEFAULT_THREADS_EVERY: usize = 4;

fn untraced(
    p: &Prepared,
    dir: &std::path::Path,
    seconds: f64,
    scale: &Scale,
    mut setup: SetupSamples,
) -> Outcome {
    let w = &p.workload;
    let warmup = serve::run_pass(w, &p.pas, dir, true, false);
    let mut cpus = Vec::new();
    let mut walls = Vec::new();
    let mut stable = true;
    let mut recovery = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while cpus.len() < scale.min_passes || Instant::now() < deadline {
        let (pass, cpu_s) = cpu::one_thread(|| serve::run_pass(w, &p.pas, dir, true, false));
        cpus.push(cpu_s);
        stable &= same(&warmup, &pass);
        recovery.extend(pass.store.map(|s| s.recovery_s));
        if cpus.len() % DEFAULT_THREADS_EVERY == 1 {
            let pass = serve::run_pass(w, &p.pas, dir, true, false);
            walls.push(pass.wall_s);
            stable &= same(&warmup, &pass);
        }
        setup.tick();
    }
    let (setup_s, _) = setup.finish();
    let requests = w.requests();
    let fresh = Fresh::new(&p.pas, &requests);
    let checks = serve::check(w, &fresh, &warmup);
    let n = checks.requests as f64;
    let raw: Vec<f64> = walls.iter().map(|s| n / s).collect();
    let per_req_us: Vec<f64> = cpus.iter().map(|s| s / n * 1e6).collect();
    let g = warmup.report.gateway();
    let m = Metric::new;
    let metrics = vec![
        m("cpu_us_per_req", median(&per_req_us), "us"),
        m("sim_mean_ms", g.latency.mean_ms(), "ms"),
        m("correct_share", 1.0 - checks.failed as f64 / n, "ratio"),
        m("augmented_share", 1.0 - checks.passthrough as f64 / n, "ratio"),
        m("fresh_match_rate", checks.fresh_match as f64 / n, "ratio"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let mut extra = vec![m("throughput_rps", median(&raw), "req/s")];
    extra.extend(end_to_end_extra(w.kind, &checks, &warmup, median(&recovery)));
    let (correct, attempted, failed) = verdict(&checks, stable);
    let mut notes = notes(&checks);
    notes.push(pass_summary("CPU time on one thread", &per_req_us, "us/request"));
    notes.push(pass_summary("throughput at the default thread count", &raw, "req/s"));
    Outcome { correct, attempted, failed, metrics, extra, notes }
}

/// One cycle of a traced run: an untraced real pass, a real pass with
/// timed `M_p`, on `restart` the same traffic on an in-memory cache, then
/// the replay. Every figure of the ledger is a median over cycles, so each
/// ratio sets times against others taken seconds apart, not minutes.
struct Cycle {
    untraced_s: f64,
    traced_s: f64,
    /// `restart`: persistent minus in-memory serving wall.
    write_through_s: f64,
    store: Option<serve::StoreTimes>,
    mp: trace::Totals,
    replay: ledger::Replay,
    layers: HashMap<&'static str, trace::Totals>,
}

impl Cycle {
    fn layer(&self, name: &str) -> trace::Totals {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Wall time of every spanned layer over one pass's worth of work,
    /// plus the store's write-through share on `restart`. Layers whose
    /// spans run on parallel workers (`mp` in the real run, `fault.wrap`
    /// in the replay) count the union of their intervals, so the sum is
    /// wall time, comparable with the untraced wall.
    fn layers_s(&self) -> f64 {
        self.layer_walls().iter().map(|(_, s)| s).sum()
    }

    /// Each term of [`Cycle::layers_s`], in seconds.
    fn layer_walls(&self) -> [(&'static str, f64); 9] {
        let s = |ns: u64| ns as f64 / 1e9;
        [
            ("embed", s(self.layer("embed").wall_ns)),
            ("cache.exact", s(self.layer("cache.exact").wall_self_ns)),
            ("ann.probe", s(self.layer("ann.probe").wall_self_ns)),
            ("ann.batch", s(self.layer("ann.batch").wall_self_ns)),
            ("cache.insert", s(self.layer("cache.insert").wall_self_ns)),
            ("fault.wrap", s(self.layer("fault.wrap").wall_self_ns)),
            ("par.map", s(self.layer("par.map").wall_self_ns)),
            ("mp", s(self.mp.wall_ns)),
            ("store", self.write_through_s),
        ]
    }
}

/// Runs one cycle; also returns the spans when `keep_spans` is set, and
/// whether both real passes answered exactly as `warmup` did.
fn cycle(
    p: &Prepared,
    dir: &std::path::Path,
    warmup: &Pass,
    batch: usize,
    keep_spans: bool,
) -> (Cycle, Vec<trace::Span>, bool) {
    let w = &p.workload;
    let untraced = serve::run_pass(w, &p.pas, dir, true, false);
    trace::set_enabled(true);
    let traced = serve::run_pass(w, &TimedOptimizer(p.pas.clone()), dir, true, false);
    trace::set_enabled(false);
    let real_spans = trace::take();
    let mp = trace::totals(&real_spans).get("mp").copied().unwrap_or_default();
    let write_through_s = if w.kind == Kind::Restart {
        untraced.wall_s - serve::run_pass(w, &p.pas, dir, false, false).wall_s
    } else {
        0.0
    };

    trace::set_enabled(true);
    let mut replay = ledger::Replay::default();
    let mut first_id = 0u32;
    for stream in &w.streams {
        replay.add(&ledger::replay(stream, &w.gateway, &p.pas, batch, first_id));
        first_id += stream.len() as u32;
    }
    trace::set_enabled(false);
    let replay_spans = trace::take();
    let layers = trace::totals(&replay_spans);
    let mut spans = Vec::new();
    if keep_spans {
        spans = real_spans;
        spans.extend(replay_spans);
    }
    let stable = same(warmup, &untraced) && same(warmup, &traced);
    let c = Cycle {
        untraced_s: untraced.wall_s,
        traced_s: traced.wall_s,
        write_through_s,
        store: untraced.store,
        mp,
        replay,
        layers,
    };
    (c, spans, stable)
}

fn traced(
    p: &Prepared,
    dir: &std::path::Path,
    seconds: f64,
    scale: &Scale,
    mut setup: SetupSamples,
) -> Outcome {
    let w = &p.workload;
    // The warm-up pass also times a replay-mode open of its checkpoint.
    let warmup = serve::run_pass(w, &p.pas, dir, true, w.kind == Kind::Restart);
    let g = warmup.report.gateway();
    // The replay groups misses into the real run's mean batch size.
    let batch = (ratio(g.batched_prompts as f64, g.batches as f64).round() as usize).max(1);
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut stable = true;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while cycles.len() < scale.min_passes || Instant::now() < deadline {
        let (c, spans, same_answers) = cycle(p, dir, &warmup, batch, cycles.is_empty());
        stable &= same_answers;
        if !spans.is_empty() {
            let path = work_dir().join(format!("trace-{}.jsonl", w.kind.name()));
            if let Err(e) = trace::write_jsonl(&path, &spans) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        cycles.push(c);
        setup.tick();
    }
    let (_, stages) = setup.finish();

    let requests = w.requests();
    let fresh = Fresh::new(&p.pas, &requests);
    let checks = serve::check(w, &fresh, &warmup);
    let n = checks.requests as f64;
    let med = |f: &dyn Fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    // Counts repeat exactly from cycle to cycle; take the first.
    let first = &cycles[0];
    let count = |name: &str| first.layer(name).count as f64;
    let replay = first.replay;
    let ann_probes = count("ann.probe") + replay.batch_queries as f64;
    let coverage = med(&|c| c.layers_s() / c.untraced_s);
    let residual_us_per_req = med(&|c| (c.untraced_s - c.layers_s()) * 1e6 / n);
    let store = |f: fn(&serve::StoreTimes) -> f64| med(&|c| c.store.as_ref().map_or(0.0, f));
    let cluster = warmup.report.cluster();
    let c = |f: fn(&pas_cluster::ClusterReport) -> u64| cluster.map_or(0.0, |c| f(c) as f64);
    let probes = (g.exact_hits + g.near_hits + g.misses) as f64;
    let ms = |s: f64| s * 1e3;

    let m = Metric::new;
    let metrics = vec![
        m("embed.calls", count("embed"), "count"),
        m("embed.us_per_call", med(&|c| c.layer("embed").us_per_call()), "us"),
        m("embed.memo_hit_ratio", 1.0 - ratio(count("embed.compute"), count("embed")), "ratio"),
        m("ann.probes", ann_probes, "count"),
        m(
            "ann.probe_us",
            med(&|c| {
                ratio(c.layer("ann.probe").self_us() + c.layer("ann.batch").self_us(), ann_probes)
            }),
            "us",
        ),
        m("ann.near_hit_ratio", ratio(replay.near as f64, count("ann.probe")), "ratio"),
        m("cache.lookups", (replay.exact + replay.near + replay.misses) as f64, "count"),
        m("cache.exact_us", med(&|c| c.layer("cache.exact").us_per_call()), "us"),
        m("cache.inserts", count("cache.insert"), "count"),
        m("cache.insert_us", med(&|c| c.layer("cache.insert").self_us_per_call()), "us"),
        m("cache.evictions", g.evictions as f64, "count"),
        m("cache.probe_hit_ratio", ratio((g.exact_hits + g.near_hits) as f64, probes), "ratio"),
        m("gateway.loop_us_per_req", residual_us_per_req, "us"),
        m("gateway.batch_size", ratio(g.batched_prompts as f64, g.batches as f64), "count"),
        m("gateway.batch_hits", g.batch_hits as f64, "count"),
        m("gateway.sim_p50_ms", g.p50_ms() as f64, "ms"),
        m("gateway.sim_p99_ms", g.p99_ms() as f64, "ms"),
        m("mp.calls", first.mp.count as f64, "count"),
        m("mp.us_per_call", med(&|c| c.mp.self_us_per_call()), "us"),
        m("fault.wrap_us_per_call", med(&|c| c.layer("fault.wrap").self_us_per_call()), "us"),
        m("fault.failovers", g.failovers as f64, "count"),
        m("par.batches", g.batches as f64, "count"),
        m(
            "par.fanout_us_per_batch",
            med(&|c| ratio(c.replay.fanout_s * 1e6, c.replay.batches as f64)),
            "us",
        ),
        m("store.write_through_us_per_req", med(&|c| c.write_through_s * 1e6 / n), "us"),
        m("store.bytes", warmup.store.map_or(0.0, |s| s.bytes as f64), "bytes"),
        m("store.checkpoint_ms", ms(store(|s| s.checkpoint_s)), "ms"),
        m("store.open_warm_ms", ms(store(|s| s.open_warm_s)), "ms"),
        m("store.open_replay_ms", ms(warmup.store.map_or(0.0, |s| s.open_replay_s)), "ms"),
        m("store.recovery_s", store(|s| s.recovery_s), "s"),
        m("cluster.forwards_per_req", c(|c| c.forwards) / n, "ratio"),
        m("cluster.hedges_per_req", c(|c| c.hedges_fired) / n, "ratio"),
        m("cluster.hedge_win_ratio", ratio(c(|c| c.hedges_won), c(|c| c.hedges_fired)), "ratio"),
        m(
            "cluster.cache_probes_per_req",
            if cluster.is_some() { probes / n } else { 0.0 },
            "ratio",
        ),
        m("cluster.repl_applied_ratio", ratio(c(|c| c.repl_applied), c(|c| c.repl_sent)), "ratio"),
        m("cluster.gossip_msgs_per_req", c(|c| c.gossip_heartbeats) / n, "ratio"),
        m(
            "cluster.self_us_per_req",
            if cluster.is_some() { residual_us_per_req } else { 0.0 },
            "us",
        ),
        m("setup.corpus_ms", ms(stages.corpus_s), "ms"),
        m("setup.select_ms", ms(stages.select_s), "ms"),
        m("setup.generate_ms", ms(stages.generate_s), "ms"),
        m("setup.sft_ms", ms(stages.sft_s), "ms"),
        m("setup.gen_first_pass_ratio", stages.gen_first_pass_ratio, "ratio"),
        m("trace.coverage", coverage, "ratio"),
        m("trace.overhead", med(&|c| c.traced_s / c.untraced_s) - 1.0, "ratio"),
        m("trace.replay_miss_gap", g.misses as f64 - replay.misses as f64, "count"),
        m("report.invariant_violations", checks.violations.len() as f64, "count"),
    ];
    let mut notes = notes(&checks);
    let over = cycles.iter().filter(|c| c.layers_s() > c.untraced_s).count();
    if over > 0 {
        notes.push(format!(
            "in {over} of {} cycles the layers' wall time exceeds the untraced wall: the \
             replay, a model of the real run timed seconds apart from it, took longer, so \
             the residual gateway.loop_us_per_req ({residual_us_per_req:.2} us) is not a \
             loop cost",
            cycles.len()
        ));
    }
    if coverage < 0.9 {
        notes.push(format!(
            "trace.coverage {coverage:.3} is below 0.9: {residual_us_per_req:.2} us/request of \
             the untraced wall sits outside the spanned layers"
        ));
    }
    notes.push(format!(
        "replay counts: exact {} near {} misses {} vs real run exact {} near {} misses {} \
         (real misses - replay misses = {}; real second-chance batch hits = {})",
        replay.exact,
        replay.near,
        replay.misses,
        g.exact_hits,
        g.near_hits,
        g.misses,
        g.misses as i64 - replay.misses as i64,
        g.batch_hits
    ));
    let shares: Vec<String> = (0..first.layer_walls().len())
        .map(|i| {
            let share = med(&|c| c.layer_walls()[i].1 / c.untraced_s);
            format!("{} {share:.3}", first.layer_walls()[i].0)
        })
        .collect();
    notes.push(format!("layer wall over untraced wall: {}", shares.join(", ")));
    notes.push(format!("ledger figures are medians over {} cycles", cycles.len()));
    let (correct, attempted, failed) = verdict(&checks, stable);
    Outcome { correct, attempted, failed, metrics, extra: Vec::new(), notes }
}
