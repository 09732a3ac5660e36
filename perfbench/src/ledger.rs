//! The traced run's serial replay: a workload's requests pushed through
//! the public functions of the layers the gateway owns privately, in the
//! gateway's order, with a span around every call.
//!
//! Per request: `SemanticCache::lookup` (span `cache.exact` on an exact
//! hit, `ann.probe` otherwise) on a cache whose embedder is wrapped twice —
//! `embed` around the bounded `EmbeddingCache` the gateway uses, and
//! `embed.compute` around the `NgramEmbedder` inside it, so memo hits are
//! visible. Misses are grouped into batches of the real run's mean batch
//! size; each batch gets the gateway's second-chance
//! `SemanticCache::lookup_batch` (`ann.batch`), then its live prompts go
//! through `pas_par::par_map` (`par.map`) over `ReplicaPool::try_serve`
//! (`fault.wrap`, with `M_p` inside as `mp`), then
//! `SemanticCache::insert` (`cache.insert`). Inserts land as soon as a
//! batch is served, not a simulated service time later as in the real
//! run, so the replay misses fewer requests than the real run; the real
//! run wins part of that gap back with second-chance batch hits.

use std::time::Instant;

use pas_core::Pas;
use pas_embed::{EmbeddingCache, NgramEmbedder};
use pas_gateway::{CacheOutcome, GatewayConfig, ReplicaPool, Request, SemanticCache, ServeOutcome};

use crate::trace::{self, TimedEmbedder, TimedOptimizer};

/// Counts from one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub exact: u64,
    pub near: u64,
    pub misses: u64,
    /// Batches that reached the pool.
    pub batches: u64,
    /// Prompts sent to `lookup_batch`.
    pub batch_queries: u64,
    /// `sum over batches of (par_map wall at the current thread count −
    /// par_map wall at one thread)`, both untraced, in seconds.
    pub fanout_s: f64,
}

impl Replay {
    /// Folds another stream's counts into these.
    pub fn add(&mut self, other: &Replay) {
        self.exact += other.exact;
        self.near += other.near;
        self.misses += other.misses;
        self.batches += other.batches;
        self.batch_queries += other.batch_queries;
        self.fanout_s += other.fanout_s;
    }
}

/// Replays `requests` under `config`; request ids in spans start at
/// `first_id`. Spans accumulate in the trace buffer.
pub fn replay(
    requests: &[Request],
    config: &GatewayConfig,
    pas: &Pas,
    batch: usize,
    first_id: u32,
) -> Replay {
    let embedder = TimedEmbedder::new(
        "embed",
        EmbeddingCache::bounded(
            TimedEmbedder::new("embed.compute", NgramEmbedder::default()),
            config.cache.capacity.max(1) * 2,
        ),
    );
    let mut cache = SemanticCache::new(config.cache.clone(), embedder);
    let pool = ReplicaPool::new(
        vec![TimedOptimizer(pas.clone()); config.replicas],
        &config.fault,
        &config.replica_profiles,
    );
    let mut counts = Replay::default();
    let mut pending: Vec<usize> = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let id = first_id + i as u32;
        let outcome = {
            let mut span = trace::enter("ann.probe", id);
            let outcome = cache.lookup(&r.prompt);
            if matches!(outcome, CacheOutcome::ExactHit(_)) {
                span.rename("cache.exact");
            }
            outcome
        };
        match outcome {
            CacheOutcome::ExactHit(_) => counts.exact += 1,
            CacheOutcome::NearHit { .. } => counts.near += 1,
            CacheOutcome::Miss => {
                counts.misses += 1;
                pending.push(i);
            }
        }
        if pending.len() >= batch.max(1) {
            flush(&mut pending, requests, first_id, &mut cache, &pool, &mut counts);
        }
    }
    flush(&mut pending, requests, first_id, &mut cache, &pool, &mut counts);
    counts
}

type ReplayCache = SemanticCache<TimedEmbedder<EmbeddingCache<TimedEmbedder<NgramEmbedder>>>>;

fn flush(
    pending: &mut Vec<usize>,
    requests: &[Request],
    first_id: u32,
    cache: &mut ReplayCache,
    pool: &ReplicaPool<TimedOptimizer<Pas>>,
    counts: &mut Replay,
) {
    if pending.is_empty() {
        return;
    }
    // Distinct prompts in first-occurrence order, each with the id of the
    // first request that carried it — the gateway's dispatch dedup.
    let mut unique: Vec<(&str, u32)> = Vec::new();
    for &i in pending.iter() {
        let p = requests[i].prompt.as_str();
        if !unique.iter().any(|&(q, _)| q == p) {
            unique.push((p, first_id + i as u32));
        }
    }
    let lead = unique[0].1;
    pending.clear();
    let prompts: Vec<&str> = unique.iter().map(|&(p, _)| p).collect();
    counts.batch_queries += prompts.len() as u64;
    let cached = {
        let _span = trace::enter("ann.batch", lead);
        cache.lookup_batch(&prompts)
    };
    let live: Vec<(&str, u32)> =
        unique.iter().zip(&cached).filter(|(_, c)| c.is_none()).map(|(u, _)| *u).collect();
    if live.is_empty() {
        return;
    }
    counts.batches += 1;
    let replica = pool.route();

    // Fan-out cost: the same untraced map at the current thread count and
    // at one thread, in alternating order so neither always runs warm.
    let serve_all = || pas_par::par_map(&live, |_, &(p, _)| pool.try_serve(replica, p));
    let wall = |f: &dyn Fn() -> Vec<ServeOutcome>| {
        let t = Instant::now();
        std::hint::black_box(f());
        t.elapsed().as_secs_f64()
    };
    let (at_n, at_1) = trace::paused(|| {
        let one = || pas_par::with_threads(1, serve_all);
        if counts.batches.is_multiple_of(2) {
            let n = wall(&serve_all);
            (n, wall(&one))
        } else {
            let s = wall(&one);
            (wall(&serve_all), s)
        }
    });
    counts.fanout_s += at_n - at_1;

    let outcomes = {
        let span = trace::enter("par.map", lead);
        let parent = span.id();
        pas_par::par_map(&live, |_, &(p, id)| {
            let _span = trace::enter_under("fault.wrap", parent, id);
            pool.try_serve(replica, p)
        })
    };
    for (&(p, id), outcome) in live.iter().zip(outcomes) {
        if let ServeOutcome::Served { response, .. } = outcome {
            let _span = trace::enter("cache.insert", id);
            cache.insert(p, &response);
        }
    }
}
