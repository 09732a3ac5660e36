//! One serving pass of a workload through the real `Gateway::run` /
//! `Cluster::run`, and the checks on what it answered.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

use pas_cluster::{Cluster, ClusterReport};
use pas_core::{Pas, PromptOptimizer};
use pas_gateway::{cache_embedder, Gateway, GatewayReport, OpenMode, Request, SemanticCache};

use crate::workload::Workload;
use crate::Kind;

/// The report a pass produced.
#[derive(Debug, Clone)]
pub enum Report {
    Gateway(GatewayReport),
    Cluster(Box<ClusterReport>),
}

impl Report {
    /// The (fleet-folded) gateway report.
    pub fn gateway(&self) -> &GatewayReport {
        match self {
            Report::Gateway(r) => r,
            Report::Cluster(c) => &c.fleet,
        }
    }

    pub fn cluster(&self) -> Option<&ClusterReport> {
        match self {
            Report::Gateway(_) => None,
            Report::Cluster(c) => Some(c),
        }
    }
}

/// Store-side timings of one `restart` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTimes {
    /// `persist_to` after the first half.
    pub checkpoint_s: f64,
    /// `open_from` in warm mode.
    pub open_warm_s: f64,
    /// From dropping the first gateway's cache to the reopened gateway
    /// being ready to serve.
    pub recovery_s: f64,
    /// Bytes on disk after the checkpoint.
    pub bytes: u64,
    /// `open_from` in replay mode on the same checkpointed log (timed
    /// only when asked for; 0 otherwise).
    pub open_replay_s: f64,
}

/// What one pass did.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time inside `Gateway::run` / `Cluster::run`, summed over the
    /// runs of the pass.
    pub wall_s: f64,
    /// Every response, aligned with [`Workload::requests`].
    pub responses: Vec<String>,
    pub report: Report,
    /// `restart` on a persistent cache only.
    pub store: Option<StoreTimes>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

/// Serves `workload` once with replicas running `mp`. `store_dir` is the
/// directory a persistent `restart` pass writes its segment log
/// to; with `persistent == false` a `restart` pass carries its in-memory
/// cache across the restart instead (the write-through-free baseline).
/// `time_replay_open` makes a persistent `restart` pass also time a
/// replay-mode reopen of its checkpointed log, outside the recovery time.
pub fn run_pass<O: PromptOptimizer + Clone>(
    workload: &Workload,
    mp: &O,
    store_dir: &Path,
    persistent: bool,
    time_replay_open: bool,
) -> Pass {
    let config = &workload.gateway;
    let replicas = || vec![mp.clone(); config.replicas];
    match workload.kind {
        Kind::Fleet => {
            let cluster_config = workload.cluster.clone().expect("fleet workloads carry a cluster");
            let mut cluster = Cluster::new(cluster_config, |_, _| mp.clone());
            let ((responses, report), wall_s) = timed(|| cluster.run(&workload.streams));
            Pass {
                wall_s,
                responses: responses.into_iter().flatten().collect(),
                report: Report::Cluster(Box::new(report)),
                store: None,
            }
        }
        Kind::Restart => {
            let requests = &workload.streams[0];
            let halves = requests.split_at(requests.len() / 2);
            if persistent {
                return restart_persistent(workload, mp, store_dir, halves, time_replay_open);
            }
            let mut gateway = Gateway::new(config.clone(), replicas());
            let ((mut responses, mut report), w1) = timed(|| gateway.run(halves.0));
            let mut gateway = Gateway::with_cache(config.clone(), replicas(), gateway.into_cache());
            let ((r2, rep2), w2) = timed(|| gateway.run(halves.1));
            responses.extend(r2);
            report.merge(&rep2);
            Pass { wall_s: w1 + w2, responses, report: Report::Gateway(report), store: None }
        }
        Kind::Hot | Kind::Cold => {
            let (mut wall_s, mut responses, mut report) =
                (0.0, Vec::new(), GatewayReport::default());
            for stream in &workload.streams {
                let mut gateway = Gateway::new(config.clone(), replicas());
                let ((r, rep), w) = timed(|| gateway.run(stream));
                wall_s += w;
                responses.extend(r);
                report.merge(&rep);
            }
            Pass { wall_s, responses, report: Report::Gateway(report), store: None }
        }
    }
}

/// Serve half → `persist_to` → drop → warm `open_from` → serve half, on
/// a write-through cache in a fresh `dir`.
fn restart_persistent<O: PromptOptimizer + Clone>(
    workload: &Workload,
    mp: &O,
    dir: &Path,
    (first, second): (&[Request], &[Request]),
    time_replay_open: bool,
) -> Pass {
    let config = &workload.gateway;
    let replicas = || vec![mp.clone(); config.replicas];
    let open = |mode| {
        SemanticCache::open_from(config.cache.clone(), cache_embedder(&config.cache), dir, mode)
            .unwrap_or_else(|e| panic!("opening cache store {}: {e}", dir.display()))
    };
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));

    let mut gateway = Gateway::with_cache(config.clone(), replicas(), open(OpenMode::Warm));
    let ((mut responses, mut report), w1) = timed(|| gateway.run(first));
    let mut cache = gateway.into_cache();
    if let Some(e) = cache.store_error() {
        panic!("cache store write failed while serving: {e}");
    }
    let (checkpoint, checkpoint_s) = timed(|| cache.persist_to(dir));
    checkpoint.unwrap_or_else(|e| panic!("checkpointing {}: {e}", dir.display()));
    let bytes = dir_bytes(dir);
    let ((), drop_s) = timed(move || drop(cache));
    let open_replay_s = if time_replay_open {
        let (replayed, s) = timed(|| open(OpenMode::Replay));
        drop(replayed);
        s
    } else {
        0.0
    };

    // Recovery: the drop of the first gateway's cache, then the warm
    // reopen up to a gateway ready to serve (the replay-mode probe above
    // is not part of it).
    let recovery = Instant::now();
    let (reopened, open_warm_s) = timed(|| open(OpenMode::Warm));
    let mut gateway = Gateway::with_cache(config.clone(), replicas(), reopened);
    let recovery_s = drop_s + recovery.elapsed().as_secs_f64();

    let ((r2, rep2), w2) = timed(|| gateway.run(second));
    if let Some(e) = gateway.cache().store_error() {
        panic!("cache store write failed while serving: {e}");
    }
    drop(gateway);
    let _ = std::fs::remove_dir_all(dir);
    responses.extend(r2);
    report.merge(&rep2);
    Pass {
        wall_s: w1 + w2,
        responses,
        report: Report::Gateway(report),
        store: Some(StoreTimes { checkpoint_s, open_warm_s, recovery_s, bytes, open_replay_s }),
    }
}

/// `Pas::optimize` called directly on every distinct prompt of a
/// workload: the reference outputs responses are checked against.
pub struct Fresh<'a> {
    by_prompt: HashMap<&'a str, String>,
}

impl<'a> Fresh<'a> {
    pub fn new(pas: &Pas, requests: &[&'a Request]) -> Self {
        let mut seen = HashSet::new();
        let prompts: Vec<&str> =
            requests.iter().map(|r| r.prompt.as_str()).filter(|p| seen.insert(*p)).collect();
        let outputs = pas_par::par_map(&prompts, |_, p| pas.optimize(p));
        Fresh { by_prompt: prompts.into_iter().zip(outputs).collect() }
    }
}

/// What the checks found in one pass's responses.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub requests: u64,
    /// Unanswered, or answered with text that does not start with the
    /// request's own prompt followed by a space (passthroughs excepted).
    pub failed: u64,
    /// Answered with the bare prompt.
    pub passthrough: u64,
    /// Byte-equal to `Pas::optimize(prompt)`.
    pub fresh_match: u64,
    /// Neither a passthrough nor any workload prompt's fresh output —
    /// bytes the program cannot legitimately have produced.
    pub unknown: u64,
    /// Report invariants that held on every gateway report.
    pub hard_invariants_ok: bool,
    /// Report invariants that fail today, each with its counts.
    pub violations: Vec<String>,
}

/// Checks `pass`'s responses against the fresh outputs and its report
/// against its own invariants.
pub fn check(workload: &Workload, fresh: &Fresh<'_>, pass: &Pass) -> Checks {
    let requests = workload.requests();
    let known: HashSet<&str> = fresh.by_prompt.values().map(String::as_str).collect();
    let mut c = Checks { requests: requests.len() as u64, ..Checks::default() };
    let answered = pass.responses.len().min(requests.len());
    c.failed += (requests.len() - answered) as u64;
    for (r, resp) in requests.iter().zip(&pass.responses) {
        let prompt = r.prompt.as_str();
        if resp == prompt {
            c.passthrough += 1;
        } else if !(resp.starts_with(prompt) && resp[prompt.len()..].starts_with(' ')) {
            c.failed += 1;
        }
        if fresh.by_prompt.get(prompt) == Some(resp) {
            c.fresh_match += 1;
        }
        if resp != prompt && !known.contains(resp.as_str()) {
            c.unknown += 1;
        }
    }

    let g = pass.report.gateway();
    let tiers = g.exact_hits + g.near_hits + g.misses;
    let completed_ok = g.completed == g.requests && g.requests == c.requests;
    if !(0.0..=1.0).contains(&g.hit_rate()) {
        c.violations.push(format!("hit_rate {} outside [0, 1]", g.hit_rate()));
    }
    if tiers != g.requests {
        let line = format!(
            "exact + near + misses == requests fails: {} + {} + {} = {} != {} ({:.4} probes per request)",
            g.exact_hits,
            g.near_hits,
            g.misses,
            tiers,
            g.requests,
            tiers as f64 / g.requests.max(1) as f64
        );
        c.violations.push(line);
    }
    // Single gateways keep both invariants today; only the fleet report,
    // which counts hedge and forward probes as requests, breaks them.
    c.hard_invariants_ok =
        completed_ok && (c.violations.is_empty() || workload.kind == Kind::Fleet);
    c
}
