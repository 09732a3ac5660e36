//! Hierarchical Navigable Small World (HNSW) index.
//!
//! Implements the construction and search procedures of Malkov & Yashunin
//! (2016): every inserted vector gets a geometrically distributed level; each
//! level holds a proximity graph; queries descend greedily from the top
//! layer and run an `ef`-bounded best-first search at layer 0.
//!
//! The implementation favours clarity and determinism (seeded level
//! assignment, id-ordered tie-breaks) over micro-optimization; the exact
//! scanner in [`crate::exact`] provides the correctness oracle in tests and
//! the speed baseline in benches.
//!
//! Three speed layers sit on top of the textbook algorithm, none of which
//! changes a single output bit relative to the baseline paths they replace:
//!
//! - **Quantized traversal** ([`Hnsw::set_quantization`] for int8,
//!   [`Hnsw::set_product_quantization`] for PQ codes): graph construction
//!   stays f32 (the graph is identical either way), but search probes run on
//!   integer codes and an over-fetched candidate set is re-ranked with exact
//!   f32 distances (see [`crate::quant`]).
//! - **Batched multi-query search** ([`Hnsw::search_batch`]): a micro-batch
//!   of queries walks layer 0 in lock-step; packed neighbor panels are built
//!   once per expanded node, cached across rounds, and probed with block
//!   kernels by every query that reaches the node. Each query's heap
//!   trajectory is exactly its sequential one, so the results equal
//!   per-query [`Hnsw::search`] bit-for-bit.
//! - **Incremental removal** ([`Hnsw::remove`]): unlink a node and re-link
//!   its peers through the diversity heuristic, instead of tombstoning and
//!   rebuilding the live set.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::metric::Metric;
use crate::quant::{
    pq_rerank_overfetch, rerank_overfetch, PqCodebook, PqConfig, PqStore, PqTable, QuantStore,
    OBS_PQ, OBS_QUANTIZED, OBS_RERANK, PQ_KC, PQ_TRAIN_MIN,
};
use crate::Neighbor;

// Observability counters. Probe counts (distance evaluations) per
// `search_layer` call are a pure function of the graph and query, and the
// parallel build plans against a frozen wave graph, so the totals are
// thread-count invariant even though the adds happen inside `par_map`.
static OBS_SEARCHES: pas_obs::Counter = pas_obs::Counter::new("ann.hnsw.searches");
static OBS_PROBES: pas_obs::Counter = pas_obs::Counter::new("ann.hnsw.probes");
// Batched-probe counters: micro-batches dispatched and queries they carried.
static OBS_BATCHES: pas_obs::Counter = pas_obs::Counter::new("ann.search_batch.batches");
static OBS_BATCH_QUERIES: pas_obs::Counter = pas_obs::Counter::new("ann.search_batch.queries");

/// Below this many rows a row-indexed block-kernel call costs more than its
/// quad-row sharing saves (the quads are 4 wide); probe lazily instead.
/// Size-based only, so deterministic.
const MIN_ROW_BLOCK: usize = 4;

/// HNSW construction parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Max bidirectional links per node per layer (layer 0 uses `2 * m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Seed for the level-assignment RNG.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig { m: 16, ef_construction: 100, seed: 0x9a5 }
    }
}

/// Distance-ordered candidate for the heaps. `Reverse`-style ordering is
/// obtained by negating through the wrapper types below.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    distance: f32,
    id: usize,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by distance, ties by id (deterministic).
        self.distance.total_cmp(&other.distance).then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    /// `neighbors[l]` = adjacency at layer `l`; length = node level + 1.
    neighbors: Vec<Vec<usize>>,
}

impl Node {
    fn level(&self) -> usize {
        self.neighbors.len() - 1
    }
}

/// Per-query layer-0 state inside [`Hnsw::search_batch`]: the same two heaps
/// plus visited set that `search_layer` keeps on its stack, promoted to a
/// struct so a micro-batch of beams can advance in lock-step.
struct Beam {
    candidates: BinaryHeap<std::cmp::Reverse<Candidate>>,
    results: BinaryHeap<Candidate>,
    visited: Vec<bool>,
    active: bool,
    probes: u64,
}

impl Beam {
    /// The accept/evict step of `search_layer`'s inner loop, verbatim.
    fn offer(&mut self, d: f32, id: usize, ef: usize) {
        let worst = self.results.peek().expect("results never empty").distance;
        if self.results.len() < ef || d < worst {
            let cand = Candidate { distance: d, id };
            self.candidates.push(std::cmp::Reverse(cand));
            self.results.push(cand);
            if self.results.len() > ef {
                self.results.pop();
            }
        }
    }

    /// Consumes one expansion's precomputed neighbor distances. Unvisited
    /// rows are taken in adjacency order, exactly like the lazy path; rows
    /// already visited are skipped without counting a probe.
    fn absorb_block(&mut self, neighbors: &[usize], dvec: &[f32], ef: usize) {
        for (j, &next) in neighbors.iter().enumerate() {
            if self.visited[next] {
                continue;
            }
            self.visited[next] = true;
            self.probes += 1;
            self.offer(dvec[j], next, ef);
        }
    }
}

/// The HNSW index. Generic over the distance [`Metric`].
///
/// Vectors are stored in the metric's *prepared* form ([`Metric::prepare`])
/// plus their original L2 norm: under [`crate::CosineDistance`] that is the
/// unit vector, so every probe during construction and search is a single
/// fused dot product (`1 − a·b`) instead of recomputing both operand norms.
/// Queries are prepared once per call.
pub struct Hnsw<M: Metric> {
    config: HnswConfig,
    metric: M,
    /// Prepared (e.g. unit-normalized) vectors, one per node. Removed slots
    /// hold an empty vector (the id is never probed again).
    vectors: Vec<Vec<f32>>,
    /// Original L2 norm of each vector, recorded at insert.
    norms: Vec<f32>,
    nodes: Vec<Node>,
    entry: Option<usize>,
    rng: StdRng,
    level_norm: f64,
    /// Vector dimension, locked at the first insert (0 = not yet known).
    dim: usize,
    /// `dead[id]` once [`Hnsw::remove`] unlinked `id`. Ids are positional
    /// and never reused.
    dead: Vec<bool>,
    /// Count of live (not removed) nodes.
    live: usize,
    /// int8 codes for the quantized probe path, row-aligned with ids.
    quant: Option<QuantStore>,
    /// PQ codes for the product-quantized probe path, row-aligned with ids
    /// (possibly untrained — probes stay f32 until it is ready).
    pq: Option<PqStore>,
}

impl<M: Metric> Hnsw<M> {
    /// Creates an empty index.
    ///
    /// # Panics
    /// Panics when `m < 2` or `ef_construction == 0`.
    pub fn new(config: HnswConfig, metric: M) -> Self {
        assert!(config.m >= 2, "m must be at least 2");
        assert!(config.ef_construction > 0, "ef_construction must be positive");
        let level_norm = 1.0 / (config.m as f64).ln();
        let rng = StdRng::seed_from_u64(config.seed);
        Hnsw {
            config,
            metric,
            vectors: Vec::new(),
            norms: Vec::new(),
            nodes: Vec::new(),
            entry: None,
            rng,
            level_norm,
            dim: 0,
            dead: Vec::new(),
            live: 0,
            quant: None,
            pq: None,
        }
    }

    /// Number of stored vector slots, including removed ones (ids are
    /// positional). See [`Hnsw::live_len`] for the live count.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Number of live (not removed) vectors.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// True when `id` has been removed from the graph.
    pub fn is_removed(&self, id: usize) -> bool {
        self.dead[id]
    }

    /// The stored vector for `id`, in the metric's prepared form (under
    /// cosine: the unit vector — multiply by [`Hnsw::norm`] to recover the
    /// original magnitude).
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.vectors[id]
    }

    /// Original L2 norm of the vector inserted as `id`.
    pub fn norm(&self, id: usize) -> f32 {
        self.norms[id]
    }

    fn random_level(&mut self) -> usize {
        let u: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
        ((-u.ln()) * self.level_norm).floor() as usize
    }

    #[inline]
    fn dist(&self, a: usize, query: &[f32]) -> f32 {
        self.metric.prepared_distance(&self.vectors[a], query)
    }

    /// Best-first search at one layer. `query` must already be in prepared
    /// form. Returns up to `ef` closest candidates, unsorted.
    fn search_layer(&self, query: &[f32], entry: usize, ef: usize, layer: usize) -> Vec<Candidate> {
        let (found, probes) = self.search_layer_with(&|id| self.dist(id, query), entry, ef, layer);
        OBS_PROBES.add(probes);
        found
    }

    /// `search_layer` over an arbitrary per-id distance (f32 or quantized).
    /// Returns the candidates plus the probe count so callers attribute the
    /// probes to the right counters.
    fn search_layer_with(
        &self,
        dist: &dyn Fn(usize) -> f32,
        entry: usize,
        ef: usize,
        layer: usize,
    ) -> (Vec<Candidate>, u64) {
        let mut visited = vec![false; self.nodes.len()];
        visited[entry] = true;
        let mut probes = 1u64;
        let entry_cand = Candidate { distance: dist(entry), id: entry };

        // `candidates`: min-heap (via Reverse) of nodes to expand.
        let mut candidates: BinaryHeap<std::cmp::Reverse<Candidate>> = BinaryHeap::new();
        candidates.push(std::cmp::Reverse(entry_cand));
        // `results`: max-heap keeping the `ef` best found so far.
        let mut results: BinaryHeap<Candidate> = BinaryHeap::new();
        results.push(entry_cand);

        while let Some(std::cmp::Reverse(current)) = candidates.pop() {
            let worst = results.peek().expect("results never empty").distance;
            if current.distance > worst && results.len() >= ef {
                break;
            }
            for &next in &self.nodes[current.id].neighbors[layer] {
                if visited[next] {
                    continue;
                }
                visited[next] = true;
                probes += 1;
                let d = dist(next);
                let worst = results.peek().expect("non-empty").distance;
                if results.len() < ef || d < worst {
                    let cand = Candidate { distance: d, id: next };
                    candidates.push(std::cmp::Reverse(cand));
                    results.push(cand);
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        (results.into_vec(), probes)
    }

    /// [`Hnsw::search_layer_with`] at layer 0 with the probes computed in
    /// row-indexed blocks: each expansion collects the current node's
    /// unvisited neighbors (marking them, in adjacency order) and hands them
    /// to `distn` four-plus rows per kernel call instead of one `dist` call
    /// per row. The offer sequence — order and values — is exactly the lazy
    /// walk's, so the returned candidate set is bit-identical; only the
    /// speed differs. The quantized tiers of [`Hnsw::search_batch`] walk
    /// each query through this.
    fn search_layer0_blocked(
        &self,
        dist: &dyn Fn(usize) -> f32,
        distn: &mut dyn FnMut(&[usize], &mut Vec<f32>),
        entry: usize,
        ef: usize,
    ) -> (Vec<Candidate>, u64) {
        let mut visited = vec![false; self.nodes.len()];
        visited[entry] = true;
        let mut probes = 1u64;
        let entry_cand = Candidate { distance: dist(entry), id: entry };
        let mut candidates: BinaryHeap<std::cmp::Reverse<Candidate>> = BinaryHeap::new();
        candidates.push(std::cmp::Reverse(entry_cand));
        let mut results: BinaryHeap<Candidate> = BinaryHeap::new();
        results.push(entry_cand);
        let mut sub: Vec<usize> = Vec::new();
        let mut dvec: Vec<f32> = Vec::new();

        while let Some(std::cmp::Reverse(current)) = candidates.pop() {
            let worst = results.peek().expect("results never empty").distance;
            if current.distance > worst && results.len() >= ef {
                break;
            }
            sub.clear();
            for &next in &self.nodes[current.id].neighbors[0] {
                if !visited[next] {
                    visited[next] = true;
                    sub.push(next);
                }
            }
            if sub.is_empty() {
                continue;
            }
            probes += sub.len() as u64;
            if sub.len() < MIN_ROW_BLOCK {
                dvec.clear();
                dvec.extend(sub.iter().map(|&next| dist(next)));
            } else {
                distn(&sub, &mut dvec);
            }
            for (j, &next) in sub.iter().enumerate() {
                let d = dvec[j];
                let worst = results.peek().expect("non-empty").distance;
                if results.len() < ef || d < worst {
                    let cand = Candidate { distance: d, id: next };
                    candidates.push(std::cmp::Reverse(cand));
                    results.push(cand);
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        (results.into_vec(), probes)
    }

    /// Greedy descent to the closest node at `layer`, starting from `entry`.
    fn greedy_step(&self, query: &[f32], entry: usize, layer: usize) -> usize {
        self.greedy_step_with(&|id| self.dist(id, query), entry, layer)
    }

    /// `greedy_step` over an arbitrary per-id distance.
    fn greedy_step_with(
        &self,
        dist: &dyn Fn(usize) -> f32,
        mut entry: usize,
        layer: usize,
    ) -> usize {
        let mut best = dist(entry);
        loop {
            let mut improved = false;
            for &next in &self.nodes[entry].neighbors[layer] {
                let d = dist(next);
                if d < best {
                    best = d;
                    entry = next;
                    improved = true;
                }
            }
            if !improved {
                return entry;
            }
        }
    }

    /// Layer-0 beam width for a `(k, ef)` request: `max(ef, k, 1)`, widened
    /// to at least [`rerank_overfetch`]`(k)` when the int8 probe path is on —
    /// or [`pq_rerank_overfetch`]`(k)` when a trained PQ tier is — so the
    /// exact re-rank has enough candidates to pin recall.
    fn beam_width(&self, k: usize, ef: usize) -> usize {
        let base = ef.max(k).max(1);
        if self.pq_ready().is_some() {
            base.max(pq_rerank_overfetch(k))
        } else if self.quant.is_some() {
            base.max(rerank_overfetch(k))
        } else {
            base
        }
    }

    /// The PQ store, when present *and* trained (the probe-path switch).
    fn pq_ready(&self) -> Option<&PqStore> {
        self.pq.as_ref().filter(|pq| pq.ready())
    }

    /// Trains the PQ codebook over all current rows (removed slots become
    /// placeholders) and encodes them.
    fn train_pq(&mut self) {
        let rows: Vec<&[f32]> = self.vectors.iter().map(|v| v.as_slice()).collect();
        self.pq.as_mut().expect("train_pq without a PQ store").train_encode(&rows, self.dim);
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Inserts a vector, returning its id (insertion order).
    pub fn insert(&mut self, mut vector: Vec<f32>) -> usize {
        let norm = self.metric.prepare(&mut vector);
        let level = self.random_level();
        let links = self.plan_insert(&vector, level);
        self.commit_plan(vector, norm, level, links)
    }

    /// Computes the layer-wise link selection for inserting `query` (already
    /// in prepared form) at `level`, *without mutating the graph*. This is
    /// the expensive half of an insert (all the distance evaluations live
    /// here) and is a pure function of the current graph, so
    /// [`Hnsw::build_batch`] runs it for a whole wave of vectors in
    /// parallel. Returns `links[layer]` = selected peers for each layer from
    /// 0 up to `min(level, top_level)`; empty when the index is empty.
    fn plan_insert(&self, query: &[f32], level: usize) -> Vec<Vec<usize>> {
        let Some(mut entry) = self.entry else {
            return Vec::new();
        };
        let top_level = self.nodes[entry].level();

        // Phase 1: descend through layers above the new node's level.
        for layer in ((level + 1)..=top_level).rev() {
            entry = self.greedy_step(query, entry, layer);
        }

        // Phase 2: select links on each layer from min(level, top) down to 0.
        let mut links = vec![Vec::new(); level.min(top_level) + 1];
        for layer in (0..=level.min(top_level)).rev() {
            let mut sorted = self.search_layer(query, entry, self.config.ef_construction, layer);
            sorted.sort();
            let m = self.max_links(layer);
            links[layer] = sorted.iter().take(m).map(|c| c.id).collect();
            // Continue descent from the closest node found on this layer.
            if let Some(best) = sorted.first() {
                entry = best.id;
            }
        }
        links
    }

    /// Applies a plan from [`Hnsw::plan_insert`]: registers the prepared
    /// vector and its original norm, wires the bidirectional links, trims
    /// overfull peers, and promotes the entry point when the new node's
    /// level exceeds the current top. Cheap (no distance evaluations except
    /// inside `shrink_links`) and always sequential — the graph mutation
    /// order is what keeps builds deterministic.
    fn commit_plan(
        &mut self,
        vector: Vec<f32>,
        norm: f32,
        level: usize,
        links: Vec<Vec<usize>>,
    ) -> usize {
        let id = self.vectors.len();
        if self.dim == 0 {
            self.dim = vector.len();
        } else {
            assert_eq!(vector.len(), self.dim, "vector dimension mismatch at insert");
        }
        let prev_top = self.entry.map(|e| self.nodes[e].level());
        if let Some(store) = self.quant.as_mut() {
            store.push(&self.metric, &vector);
        }
        if let Some(pq) = self.pq.as_mut() {
            if pq.ready() {
                pq.push(&vector);
            }
        }
        self.vectors.push(vector);
        self.norms.push(norm);
        self.dead.push(false);
        self.live += 1;
        if self.pq.as_ref().is_some_and(|pq| !pq.ready()) && self.live >= PQ_TRAIN_MIN {
            self.train_pq();
        }
        self.nodes.push(Node { neighbors: vec![Vec::new(); level + 1] });
        for (layer, peers) in links.iter().enumerate() {
            for &peer in peers {
                self.nodes[id].neighbors[layer].push(peer);
                self.nodes[peer].neighbors[layer].push(id);
                self.shrink_links(peer, layer);
            }
        }
        match prev_top {
            None => self.entry = Some(id),
            Some(top) if level > top => self.entry = Some(id),
            _ => {}
        }
        id
    }

    /// Bulk insertion with parallel distance evaluations. Returns the ids
    /// assigned, in input order.
    ///
    /// Vectors are processed in *waves*: every vector in a wave plans its
    /// links concurrently against the graph as frozen at the wave start
    /// (via [`pas_par::par_map`] — pure reads), then the plans are committed
    /// sequentially in input order. Wave sizes grow with the graph
    /// (1, 2, 4, … capped at [`Hnsw::MAX_WAVE`]) and never depend on the
    /// thread count, and levels are pre-drawn from the index RNG in input
    /// order, so the resulting graph is bit-identical at any `--threads`
    /// setting. The graph differs slightly from the one incremental
    /// [`Hnsw::insert`] calls would build (wave peers don't see each other
    /// while planning), but it satisfies the same HNSW invariants and recall
    /// bounds — see `batch_build_recall_matches_incremental`.
    pub fn build_batch(&mut self, vectors: Vec<Vec<f32>>) -> Vec<usize> {
        let levels: Vec<usize> = vectors.iter().map(|_| self.random_level()).collect();
        // Prepare every vector once up front (unit-normalize under cosine) —
        // element-wise work, safely parallel, order-independent.
        let prepared = pas_par::par_map(&vectors, |_, v| {
            let mut v = v.clone();
            let norm = self.metric.prepare(&mut v);
            (v, norm)
        });
        drop(vectors);
        let mut ids = Vec::with_capacity(prepared.len());
        let mut prepared: Vec<Option<(Vec<f32>, f32)>> = prepared.into_iter().map(Some).collect();
        let mut next = 0;
        while next < prepared.len() {
            let wave = (prepared.len() - next).min(self.len().clamp(1, Self::MAX_WAVE));
            let plans = {
                let wave_inputs: Vec<(usize, &[f32])> = (next..next + wave)
                    .map(|i| (i, prepared[i].as_ref().expect("not yet committed").0.as_slice()))
                    .collect();
                pas_par::par_map(&wave_inputs, |_, &(i, v)| self.plan_insert(v, levels[i]))
            };
            for (j, links) in plans.into_iter().enumerate() {
                let i = next + j;
                let (v, norm) = prepared[i].take().expect("committed once");
                ids.push(self.commit_plan(v, norm, levels[i], links));
            }
            next += wave;
        }
        ids
    }

    /// Cap on the number of vectors planned concurrently per wave of
    /// [`Hnsw::build_batch`]. Bounds how stale the frozen graph each plan
    /// sees can get (graph quality) while leaving enough items in flight to
    /// occupy every worker (speed).
    pub const MAX_WAVE: usize = 64;

    /// Trims a node's adjacency at `layer` to at most `max_links` using the
    /// diversity heuristic of Malkov & Yashunin's Algorithm 4: walk the
    /// candidates closest-first and keep one only when it is closer to the
    /// base than to every neighbour already kept; then backfill remaining
    /// slots with the closest pruned candidates ("keep pruned connections").
    /// Plain closest-`M` truncation severs every inbound link of an outlier
    /// (it is everyone's farthest neighbour), disconnecting it from the
    /// graph; the heuristic preserves such bridges.
    fn shrink_links(&mut self, node: usize, layer: usize) {
        let m = self.max_links(layer);
        if self.nodes[node].neighbors[layer].len() <= m {
            return;
        }
        let base = self.vectors[node].clone();
        let mut links: Vec<Candidate> = self.nodes[node].neighbors[layer]
            .iter()
            .map(|&peer| Candidate {
                distance: self.metric.prepared_distance(&base, &self.vectors[peer]),
                id: peer,
            })
            .collect();
        links.sort();
        let mut selected: Vec<Candidate> = Vec::with_capacity(m);
        let mut pruned: Vec<Candidate> = Vec::new();
        for cand in links {
            if selected.len() >= m {
                break;
            }
            let diverse = selected.iter().all(|s| {
                cand.distance
                    < self.metric.prepared_distance(&self.vectors[cand.id], &self.vectors[s.id])
            });
            if diverse {
                selected.push(cand);
            } else {
                pruned.push(cand);
            }
        }
        for cand in pruned {
            if selected.len() >= m {
                break;
            }
            selected.push(cand);
        }
        self.nodes[node].neighbors[layer] = selected.into_iter().map(|c| c.id).collect();
    }

    /// Switches the int8 quantized probe path on or off.
    ///
    /// When on, every stored vector gets an int8 code row ([`QuantStore`]);
    /// searches traverse the graph on integer dots and finish with an exact
    /// f32 re-rank of an over-fetched candidate set ([`rerank_overfetch`]).
    /// Graph construction stays f32 either way, so toggling quantization
    /// never changes the graph — only the probe arithmetic. Integer dots are
    /// exact, so quantized traversal is invariant across kernel backends.
    ///
    /// # Panics
    /// Panics when the metric has no quantized probe path
    /// ([`Metric::quantize`] returns `None`).
    pub fn set_quantization(&mut self, enabled: bool) {
        if !enabled {
            self.quant = None;
            return;
        }
        self.pq = None;
        if self.quant.is_some() {
            return;
        }
        assert!(self.metric.quantize(&[]).is_some(), "metric has no quantized probe path");
        let mut store = QuantStore::new();
        for id in 0..self.vectors.len() {
            if self.dead[id] {
                store.push_placeholder(self.dim);
            } else {
                store.push(&self.metric, &self.vectors[id]);
            }
        }
        self.quant = Some(store);
    }

    /// True when the int8 quantized probe path is active.
    pub fn quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Switches the product-quantized probe path on or off.
    ///
    /// When on, stored vectors get `m ≈ dim/8`-byte PQ code rows
    /// ([`PqStore`]) and searches traverse the graph on fixed-point ADC
    /// table adds, finishing with an exact f32 re-rank of a
    /// [`pq_rerank_overfetch`]-widened candidate set. Enabling drops any
    /// int8 tier (the tiers are mutually exclusive). The codebook trains
    /// over the stored rows — immediately when at least [`PQ_TRAIN_MIN`]
    /// live vectors exist, otherwise lazily at the insert that reaches the
    /// threshold; probes stay f32 until then. Graph construction stays f32
    /// either way, so toggling PQ never changes the graph — only the probe
    /// arithmetic, which is pure integer adds and therefore invariant
    /// across kernel backends and thread counts.
    pub fn set_product_quantization(&mut self, enabled: bool) {
        if !enabled {
            self.pq = None;
            return;
        }
        self.quant = None;
        if self.pq.is_some() {
            return;
        }
        self.pq = Some(PqStore::new(PqConfig::default()));
        if self.live >= PQ_TRAIN_MIN {
            self.train_pq();
        }
    }

    /// True when the PQ probe path is active (the codebook may still be
    /// untrained — see [`Hnsw::set_product_quantization`]).
    pub fn product_quantized(&self) -> bool {
        self.pq.is_some()
    }

    /// Bytes the traversal touches per stored vector: `m` (≈ dim/8) with a
    /// trained PQ tier, `dim + 4` with int8 quantization on, `4 * dim` for
    /// the f32 path.
    pub fn probe_bytes_per_vector(&self) -> usize {
        if let Some(pq) = self.pq_ready() {
            return pq.bytes_per_vector();
        }
        match &self.quant {
            Some(store) => store.bytes_per_vector(),
            None => self.dim * std::mem::size_of::<f32>(),
        }
    }

    /// Exact-f32 re-rank of a quantized candidate set: recompute true
    /// distances for every candidate the beam returned, sort, keep `k`.
    fn rerank_exact(&self, query: &[f32], found: Vec<Candidate>, k: usize) -> Vec<Neighbor> {
        OBS_RERANK.add(found.len() as u64);
        let mut exact: Vec<Candidate> = found
            .into_iter()
            .map(|c| Candidate { distance: self.dist(c.id, query), id: c.id })
            .collect();
        exact.sort();
        exact.into_iter().take(k).map(|c| Neighbor { id: c.id, distance: c.distance }).collect()
    }

    /// Searches the `k` nearest neighbours of `query` with beam width `ef`
    /// (clamped up to `k`). Closest first; ties by id. The query is prepared
    /// once (one normalization under cosine); every probe after that is a
    /// prepared-form distance — or an integer dot when quantization is on,
    /// followed by an exact f32 re-rank of the over-fetched beam.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        OBS_SEARCHES.incr();
        let Some(mut entry) = self.entry else {
            return Vec::new();
        };
        let mut prepared = query.to_vec();
        self.metric.prepare(&mut prepared);
        let query = prepared.as_slice();
        let top_level = self.nodes[entry].level();
        let ef0 = self.beam_width(k, ef);
        if let Some(pq) = self.pq_ready() {
            let table = pq.table(query);
            let qd = |id: usize| table.distance(pq.row(id));
            for layer in (1..=top_level).rev() {
                entry = self.greedy_step_with(&qd, entry, layer);
            }
            let (found, probes) = self.search_layer_with(&qd, entry, ef0, 0);
            OBS_PROBES.add(probes);
            OBS_PQ.add(probes);
            return self.rerank_exact(query, found, k);
        }
        if let Some(store) = &self.quant {
            let (qcodes, qscale) =
                self.metric.quantize(query).expect("quantized index requires a quantizing metric");
            let qd = |id: usize| {
                let (codes, scale) = store.row(id);
                self.metric.quantized_distance(&qcodes, qscale, codes, scale)
            };
            for layer in (1..=top_level).rev() {
                entry = self.greedy_step_with(&qd, entry, layer);
            }
            let (found, probes) = self.search_layer_with(&qd, entry, ef0, 0);
            OBS_PROBES.add(probes);
            OBS_QUANTIZED.add(probes);
            self.rerank_exact(query, found, k)
        } else {
            for layer in (1..=top_level).rev() {
                entry = self.greedy_step(query, entry, layer);
            }
            let mut found = self.search_layer(query, entry, ef0, 0);
            found.sort();
            found.into_iter().take(k).map(|c| Neighbor { id: c.id, distance: c.distance }).collect()
        }
    }

    /// Searches a micro-batch of queries, bit-identical to mapping
    /// [`Hnsw::search`] over them one by one.
    ///
    /// All queries descend the upper layers independently, then walk layer 0
    /// in lock-step rounds: each round every still-active beam pops its next
    /// expansion node, the round's expansions are grouped by node id, and
    /// each group's neighbor rows are packed once into a contiguous panel
    /// that every grouped query probes with one block-kernel call
    /// ([`Metric::prepared_distance_block`] / int8 when quantized). Block
    /// rows are bit-identical to pairwise probes and each beam consumes them
    /// in adjacency order, so every query's heap trajectory — and therefore
    /// its result — is exactly the sequential one.
    pub fn search_batch(&self, queries: &[Vec<f32>], k: usize, ef: usize) -> Vec<Vec<Neighbor>> {
        if queries.is_empty() {
            return Vec::new();
        }
        OBS_BATCHES.incr();
        OBS_BATCH_QUERIES.add(queries.len() as u64);
        OBS_SEARCHES.add(queries.len() as u64);
        let Some(entry0) = self.entry else {
            return queries.iter().map(|_| Vec::new()).collect();
        };
        let prepared: Vec<Vec<f32>> = queries
            .iter()
            .map(|q| {
                let mut p = q.clone();
                self.metric.prepare(&mut p);
                p
            })
            .collect();
        let quantized: Option<Vec<(Vec<i8>, f32)>> = self.quant.as_ref().map(|_| {
            prepared
                .iter()
                .map(|p| {
                    self.metric.quantize(p).expect("quantized index requires a quantizing metric")
                })
                .collect()
        });
        // One ADC table per query, built up front and shared by every
        // lock-step round (and the upper-layer descents) of the whole
        // micro-batch.
        let pq_store = self.pq_ready();
        let tables: Option<Vec<PqTable>> =
            pq_store.map(|pq| prepared.iter().map(|p| pq.table(p)).collect());
        let dist_for = |qi: usize, id: usize| -> f32 {
            if let (Some(pq), Some(tables)) = (pq_store, &tables) {
                return tables[qi].distance(pq.row(id));
            }
            match (&self.quant, &quantized) {
                (Some(store), Some(q)) => {
                    let (codes, scale) = store.row(id);
                    self.metric.quantized_distance(&q[qi].0, q[qi].1, codes, scale)
                }
                _ => self.dist(id, &prepared[qi]),
            }
        };
        let ef0 = self.beam_width(k, ef);
        let top_level = self.nodes[entry0].level();

        // Quantized tiers: walk the queries one after another, each through
        // the row-blocked layer-0 walk. Their code stores are small enough
        // to stay cache-resident, so there is no memory traffic for
        // lock-stepped queries to share — and lock-stepping actively hurts
        // the PQ tier, whose per-query 8 KB ADC tables would thrash L1 if
        // interleaved. Per-query blocking keeps one query's table (and int8
        // codes) hot while the quad-row kernels deliver the batch speedup.
        if self.quant.is_some() || pq_store.is_some() {
            let mut sums: Vec<u32> = Vec::new();
            let mut idots: Vec<i32> = Vec::new();
            let mut probes = 0u64;
            let mut out = Vec::with_capacity(queries.len());
            for qi in 0..queries.len() {
                let mut entry = entry0;
                for layer in (1..=top_level).rev() {
                    entry = self.greedy_step_with(&|id| dist_for(qi, id), entry, layer);
                }
                let (found, p) = if let (Some(pq), Some(tables)) = (pq_store, &tables) {
                    let mut distn = |rows: &[usize], dv: &mut Vec<f32>| {
                        tables[qi].distance_rows(pq.flat(), rows, &mut sums, dv)
                    };
                    self.search_layer0_blocked(&|id| dist_for(qi, id), &mut distn, entry, ef0)
                } else {
                    let store = self.quant.as_ref().expect("int8 tier");
                    let q = quantized.as_ref().expect("int8 tier");
                    let (codes, scales) = store.flat();
                    let mut distn = |rows: &[usize], dv: &mut Vec<f32>| {
                        self.metric.quantized_distance_rows(
                            &q[qi].0, q[qi].1, codes, scales, rows, &mut idots, dv,
                        )
                    };
                    self.search_layer0_blocked(&|id| dist_for(qi, id), &mut distn, entry, ef0)
                };
                probes += p;
                out.push(self.rerank_exact(&prepared[qi], found, k));
            }
            OBS_PROBES.add(probes);
            if pq_store.is_some() {
                OBS_PQ.add(probes);
            } else {
                OBS_QUANTIZED.add(probes);
            }
            return out;
        }

        // f32 tier: upper-layer descent per query, then a layer-0 beam
        // primed exactly like `search_layer`'s prologue, advanced in
        // lock-step rounds that share packed panels.
        let mut beams: Vec<Beam> = (0..queries.len())
            .map(|qi| {
                let mut entry = entry0;
                for layer in (1..=top_level).rev() {
                    entry = self.greedy_step_with(&|id| dist_for(qi, id), entry, layer);
                }
                let mut visited = vec![false; self.nodes.len()];
                visited[entry] = true;
                let entry_cand = Candidate { distance: dist_for(qi, entry), id: entry };
                let mut candidates = BinaryHeap::new();
                candidates.push(std::cmp::Reverse(entry_cand));
                let mut results = BinaryHeap::new();
                results.push(entry_cand);
                Beam { candidates, results, visited, active: true, probes: 1 }
            })
            .collect();

        // Shared-node neighbor rows are packed into panels: a scratch panel
        // per group plus an append-only arena of packed *full-adjacency*
        // panels. A full panel is cached the first time a group needs every
        // row of a node's adjacency and reused — zero packing cost, zero
        // wasted rows — by any later round (including lone beams) whose
        // needed rows are again the full adjacency. Partially-needed panels
        // are never cached: probing a stale full panel would compute
        // distances for rows every beam has already visited, which costs
        // more than the packing it saves.
        let mut panel_f32: Vec<f32> = Vec::new();
        let mut arena_f32: Vec<f32> = Vec::new();
        let mut arena_rows: HashMap<usize, usize> = HashMap::new();
        let mut next_arena_row = 0usize;
        let mut dvec: Vec<f32> = Vec::new();
        let mut sub: Vec<usize> = Vec::new();
        // Expansions of one round as (node, query) pairs; sorted, equal-node
        // runs form the groups. Reused across rounds — no per-round allocs.
        let mut expansions: Vec<(usize, usize)> = Vec::new();
        // Below this many panel rows a pack + block call costs more than it
        // saves; probe lazily instead. Size-based only, so deterministic.
        const MIN_PANEL_ROWS: usize = 8;
        loop {
            // Each active beam pops one expansion; group them by node id.
            // A beam contributes at most one expansion per round, so group
            // processing order cannot affect any single beam's trajectory.
            expansions.clear();
            for (qi, beam) in beams.iter_mut().enumerate() {
                if !beam.active {
                    continue;
                }
                match beam.candidates.pop() {
                    None => beam.active = false,
                    Some(std::cmp::Reverse(current)) => {
                        let worst = beam.results.peek().expect("results never empty").distance;
                        if current.distance > worst && beam.results.len() >= ef0 {
                            beam.active = false;
                        } else {
                            expansions.push((current.id, qi));
                        }
                    }
                }
            }
            if expansions.is_empty() {
                break;
            }
            // Pairs are unique (one pop per beam), so the unstable sort is a
            // deterministic total order: ascending node, then query.
            expansions.sort_unstable();
            let mut start = 0;
            while start < expansions.len() {
                let node = expansions[start].0;
                let mut end = start + 1;
                while end < expansions.len() && expansions[end].0 == node {
                    end += 1;
                }
                let group = &expansions[start..end];
                start = end;
                let neighbors = self.nodes[node].neighbors[0].as_slice();
                if neighbors.is_empty() {
                    continue;
                }
                // Lone beam: the sequential inner loop verbatim — no row
                // collection, no pack, no block call — unless the arena
                // already holds this node's packed panel (then the block
                // kernel is worth probing even a single query with). Every
                // branch condition depends only on sizes and the —
                // deterministic — expansion history, so the per-row
                // arithmetic path is identical on every run.
                if group.len() == 1 && !arena_rows.contains_key(&node) {
                    let qi = group[0].1;
                    let beam = &mut beams[qi];
                    for &next in neighbors {
                        if beam.visited[next] {
                            continue;
                        }
                        beam.visited[next] = true;
                        beam.probes += 1;
                        let d = dist_for(qi, next);
                        beam.offer(d, next, ef0);
                    }
                    continue;
                }
                // The rows at least one grouped beam still needs, in
                // adjacency order — converged beams have visited most
                // neighbors already, so this stays tight.
                sub.clear();
                sub.extend(
                    neighbors
                        .iter()
                        .copied()
                        .filter(|&next| group.iter().any(|&(_, qi)| !beams[qi].visited[next])),
                );
                if sub.is_empty() {
                    continue;
                }
                // f32 tier: pack the needed rows once (or fetch the node's
                // cached full panel), then probe with one block-kernel call
                // per grouped query. `absorb_block` skips each beam's own
                // visited rows, so trajectories stay sequential-exact. Lazy
                // when the rows are too few to amortize a pack + block
                // call, or when a lone beam expands a node whose full panel
                // is not already in the arena (packing for one consumer is
                // pure overhead).
                let full = sub.len() == neighbors.len();
                let cached = if full { arena_rows.get(&node).copied() } else { None };
                if sub.len() < MIN_PANEL_ROWS || (group.len() == 1 && cached.is_none()) {
                    for &(_, qi) in group {
                        let beam = &mut beams[qi];
                        for &next in &sub {
                            if beam.visited[next] {
                                continue;
                            }
                            beam.visited[next] = true;
                            beam.probes += 1;
                            let d = dist_for(qi, next);
                            beam.offer(d, next, ef0);
                        }
                    }
                    continue;
                }
                let rows = sub.len();
                // A full panel enters the arena on first pack so later
                // rounds reuse it for free; partial panels live in scratch.
                let row0 = match (full, cached) {
                    (true, Some(row0)) => Some(row0),
                    (true, None) => {
                        arena_rows.insert(node, next_arena_row);
                        next_arena_row += rows;
                        None
                    }
                    (false, _) => None,
                };
                let panel: &[f32] = match row0 {
                    Some(row0) => &arena_f32[row0 * self.dim..(row0 + rows) * self.dim],
                    None if full => {
                        let at = arena_f32.len();
                        for &next in &sub {
                            arena_f32.extend_from_slice(&self.vectors[next]);
                        }
                        &arena_f32[at..]
                    }
                    None => {
                        panel_f32.clear();
                        for &next in &sub {
                            panel_f32.extend_from_slice(&self.vectors[next]);
                        }
                        &panel_f32
                    }
                };
                dvec.resize(rows, 0.0);
                for &(_, qi) in group {
                    self.metric.prepared_distance_block(&prepared[qi], panel, &mut dvec);
                    beams[qi].absorb_block(&sub, &dvec, ef0);
                }
            }
        }

        let mut probes = 0u64;
        let out = beams
            .into_iter()
            .map(|beam| {
                probes += beam.probes;
                let mut found = beam.results.into_vec();
                found.sort();
                found
                    .into_iter()
                    .take(k)
                    .map(|c| Neighbor { id: c.id, distance: c.distance })
                    .collect()
            })
            .collect();
        OBS_PROBES.add(probes);
        out
    }

    /// Removes `id` from the graph, returning whether it was live.
    ///
    /// The node is unlinked from every peer, and on each layer its peers are
    /// offered the removed node's other peers as replacement link candidates
    /// (then trimmed by the usual diversity heuristic), so the neighborhood
    /// stays connected without a rebuild. Ids are positional and never
    /// reused; the freed slot keeps its id but drops its vector storage.
    /// When `id` was the entry point, the entry moves to the highest-level
    /// live node (smallest id on ties).
    pub fn remove(&mut self, id: usize) -> bool {
        if id >= self.nodes.len() || self.dead[id] {
            return false;
        }
        let top = self.nodes[id].level();
        for layer in 0..=top {
            let mut peers = std::mem::take(&mut self.nodes[id].neighbors[layer]);
            // Links are wired bidirectionally but `shrink_links` trims each
            // side independently, so nodes outside `id`'s own adjacency may
            // still hold an inbound edge — sweep them all, and offer the
            // holders re-links too.
            for n in 0..self.nodes.len() {
                if n == id || self.dead[n] || self.nodes[n].neighbors.len() <= layer {
                    continue;
                }
                let list = &mut self.nodes[n].neighbors[layer];
                let before = list.len();
                list.retain(|&x| x != id);
                if list.len() != before && !peers.contains(&n) {
                    peers.push(n);
                }
            }
            for &p in &peers {
                let mut changed = false;
                for &q in &peers {
                    if q == p || self.nodes[p].neighbors[layer].contains(&q) {
                        continue;
                    }
                    self.nodes[p].neighbors[layer].push(q);
                    changed = true;
                }
                if changed {
                    self.shrink_links(p, layer);
                }
            }
        }
        self.dead[id] = true;
        self.live -= 1;
        self.vectors[id] = Vec::new();
        if self.entry == Some(id) {
            self.entry = self.pick_entry();
        }
        true
    }

    /// Deterministic entry repair: highest-level live node, smallest id on
    /// ties. O(n), but removal of the entry point is rare.
    fn pick_entry(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, node) in self.nodes.iter().enumerate() {
            if self.dead[i] {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => node.level() > self.nodes[b].level(),
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    /// All neighbours within `radius` of `query`, found by running an
    /// `ef`-bounded search and filtering. With `ef` well above the expected
    /// group size this matches exact radius search with high probability.
    pub fn search_radius(&self, query: &[f32], radius: f32, ef: usize) -> Vec<Neighbor> {
        self.search(query, ef, ef).into_iter().filter(|n| n.distance <= radius).collect()
    }

    /// Captures the index state for persistence. The metric is not part of
    /// the snapshot — supply the same one to [`Hnsw::from_snapshot`].
    pub fn snapshot(&self) -> HnswSnapshot {
        HnswSnapshot {
            config: self.config.clone(),
            vectors: self.vectors.clone(),
            norms: self.norms.clone(),
            nodes: self.nodes.clone(),
            entry: self.entry,
            removed: (0..self.nodes.len()).filter(|&i| self.dead[i]).collect(),
        }
    }

    /// Restores an index from a snapshot. Searches reproduce exactly;
    /// *future inserts* draw levels from a reseeded RNG (seed ⊕ node count),
    /// so an index that keeps growing after a reload follows a different —
    /// but equally valid — level sequence than one that never stopped.
    pub fn from_snapshot(snapshot: HnswSnapshot, metric: M) -> Self {
        let level_norm = 1.0 / (snapshot.config.m as f64).ln();
        let rng = StdRng::seed_from_u64(
            snapshot.config.seed ^ (snapshot.nodes.len() as u64).rotate_left(21),
        );
        let mut dead = vec![false; snapshot.nodes.len()];
        for &id in &snapshot.removed {
            dead[id] = true;
        }
        let live = snapshot.nodes.len() - snapshot.removed.len();
        // Removed slots store empty vectors, so the dimension comes from the
        // first live row (0 when none are left — relocked at next insert).
        let dim = snapshot.vectors.iter().find(|v| !v.is_empty()).map_or(0, |v| v.len());
        Hnsw {
            config: snapshot.config,
            metric,
            vectors: snapshot.vectors,
            norms: snapshot.norms,
            nodes: snapshot.nodes,
            entry: snapshot.entry,
            rng,
            level_norm,
            dim,
            dead,
            live,
            quant: None,
            pq: None,
        }
    }

    /// Serializes the complete index state — graph, vectors, removed-id
    /// set, int8/PQ code stores — to a compact binary blob for the
    /// persistence layer.
    ///
    /// Unlike [`Hnsw::snapshot`], a dump carries the quantized tiers
    /// verbatim and preserves RNG continuity: the level RNG draws exactly
    /// one `f64` per stored vector (ids are positional and never reused),
    /// so [`Hnsw::load`] reseeds from `config.seed` and fast-forwards
    /// `len()` draws. A loaded index therefore not only probes
    /// bit-identically to the never-closed one — its *future inserts* draw
    /// the same level sequence too.
    ///
    /// All scalars are little-endian; `f32`s travel as raw bits, so the
    /// round trip is bit-exact on every platform.
    pub fn dump(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(DUMP_MAGIC);
        wire::put_u64(&mut out, self.config.m as u64);
        wire::put_u64(&mut out, self.config.ef_construction as u64);
        wire::put_u64(&mut out, self.config.seed);
        wire::put_u64(&mut out, self.dim as u64);
        let n = self.vectors.len();
        wire::put_u64(&mut out, n as u64);
        wire::put_u64(&mut out, self.entry.map_or(u64::MAX, |e| e as u64));
        wire::put_u64(&mut out, self.live as u64);
        for &norm in &self.norms {
            wire::put_f32(&mut out, norm);
        }
        for &d in &self.dead {
            out.push(d as u8);
        }
        for v in &self.vectors {
            wire::put_u32(&mut out, v.len() as u32);
            for &x in v {
                wire::put_f32(&mut out, x);
            }
        }
        for node in &self.nodes {
            wire::put_u32(&mut out, node.neighbors.len() as u32);
            for layer in &node.neighbors {
                wire::put_u32(&mut out, layer.len() as u32);
                for &peer in layer {
                    wire::put_u32(&mut out, peer as u32);
                }
            }
        }
        match (&self.quant, &self.pq) {
            (Some(store), _) => {
                out.push(1);
                let (qdim, codes, scales) = store.to_parts();
                wire::put_u64(&mut out, qdim as u64);
                wire::put_u64(&mut out, scales.len() as u64);
                out.extend(codes.iter().map(|&c| c as u8));
                for &s in scales {
                    wire::put_f32(&mut out, s);
                }
            }
            (None, Some(pq)) => {
                out.push(2);
                let (cfg, codebook, codes, rows) = pq.to_parts();
                wire::put_u64(&mut out, cfg.train_cap as u64);
                wire::put_u64(&mut out, cfg.max_iters as u64);
                wire::put_u64(&mut out, cfg.seed);
                wire::put_u64(&mut out, rows as u64);
                match codebook {
                    None => out.push(0),
                    Some(cb) => {
                        out.push(1);
                        let (cdim, sub, m, kc, centroids) = cb.to_parts();
                        wire::put_u64(&mut out, cdim as u64);
                        wire::put_u64(&mut out, sub as u64);
                        wire::put_u64(&mut out, m as u64);
                        wire::put_u64(&mut out, kc as u64);
                        wire::put_u64(&mut out, centroids.len() as u64);
                        for &c in centroids {
                            wire::put_f32(&mut out, c);
                        }
                    }
                }
                wire::put_u64(&mut out, codes.len() as u64);
                out.extend_from_slice(codes);
            }
            (None, None) => out.push(0),
        }
        out
    }

    /// Restores an index from [`Hnsw::dump`] bytes. The metric is not part
    /// of the dump — supply the same one that built the index.
    ///
    /// Errors describe the first structural problem found (bad magic,
    /// truncated buffer, out-of-range id, shape mismatch); the caller
    /// (`pas-store`) guards the bytes with a CRC, so an error here means
    /// the snapshot file lied about its own integrity. Every length field
    /// is checked against the bytes left before anything is allocated or
    /// taken from it, so hostile bytes yield `Err`, never an abort.
    pub fn load(bytes: &[u8], metric: M) -> Result<Self, String> {
        let mut r = wire::Reader::new(bytes);
        if r.take(DUMP_MAGIC.len())? != DUMP_MAGIC {
            return Err("bad dump magic".into());
        }
        let config =
            HnswConfig { m: r.u64()? as usize, ef_construction: r.u64()? as usize, seed: r.u64()? };
        if config.m < 2 || config.ef_construction == 0 {
            return Err("dump config out of range".into());
        }
        let dim = r.u64()?;
        let n = r.u64()? as usize;
        if n > bytes.len() {
            return Err("dump node count exceeds buffer".into());
        }
        // Vector lengths travel as u32, so no stored vector can be wider.
        if dim > u64::from(u32::MAX) {
            return Err("dump dimension out of range".into());
        }
        let dim = dim as usize;
        let entry = match r.u64()? {
            u64::MAX => None,
            e if (e as usize) < n => Some(e as usize),
            _ => return Err("dump entry id out of range".into()),
        };
        let live = r.u64()? as usize;
        let mut norms = Vec::with_capacity(n);
        for _ in 0..n {
            norms.push(r.f32()?);
        }
        let mut dead = Vec::with_capacity(n);
        for _ in 0..n {
            dead.push(r.u8()? != 0);
        }
        if dead.iter().filter(|&&d| !d).count() != live {
            return Err("dump live count mismatch".into());
        }
        // A live vector keeps its `dim` floats, so one must still fit.
        if live > 0 {
            r.check_len(dim, 4, "dump dimension")?;
        }
        let mut vectors = Vec::with_capacity(n);
        for id in 0..n {
            let len = r.u32()? as usize;
            if len != 0 && len != dim {
                return Err(format!("dump vector {id} has wrong dimension"));
            }
            r.check_len(len, 4, "dump vector")?;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(r.f32()?);
            }
            vectors.push(v);
        }
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let layers = r.u32()? as usize;
            if layers == 0 {
                return Err("dump node has no layers".into());
            }
            r.check_len(layers, 4, "dump layer count")?;
            let mut neighbors = Vec::with_capacity(layers);
            for _ in 0..layers {
                let cnt = r.u32()? as usize;
                r.check_len(cnt, 4, "dump neighbor count")?;
                let mut layer = Vec::with_capacity(cnt);
                for _ in 0..cnt {
                    let peer = r.u32()? as usize;
                    if peer >= n {
                        return Err("dump neighbor id out of range".into());
                    }
                    layer.push(peer);
                }
                neighbors.push(layer);
            }
            nodes.push(Node { neighbors });
        }
        let mut quant = None;
        let mut pq = None;
        match r.u8()? {
            0 => {}
            1 => {
                let qdim = r.u64()? as usize;
                let rows = r.u64()? as usize;
                if rows != n {
                    return Err("dump int8 row count mismatch".into());
                }
                let code_len = rows.checked_mul(qdim).ok_or("dump int8 shape overflow")?;
                let codes: Vec<i8> = r.take(code_len)?.iter().map(|&b| b as i8).collect();
                r.check_len(rows, 4, "dump int8 scales")?;
                let mut scales = Vec::with_capacity(rows);
                for _ in 0..rows {
                    scales.push(r.f32()?);
                }
                quant = Some(QuantStore::from_parts(qdim, codes, scales));
            }
            2 => {
                let cfg = PqConfig {
                    train_cap: r.u64()? as usize,
                    max_iters: r.u64()? as usize,
                    seed: r.u64()?,
                };
                let rows = r.u64()? as usize;
                let codebook = match r.u8()? {
                    0 => None,
                    _ => {
                        let cdim = r.u64()? as usize;
                        let sub = r.u64()? as usize;
                        let m = r.u64()? as usize;
                        let kc = r.u64()? as usize;
                        let clen = r.u64()? as usize;
                        if cdim != m.checked_mul(sub).ok_or("dump codebook overflow")? {
                            return Err("dump codebook shape mismatch".into());
                        }
                        if kc > PQ_KC || Some(clen) != cdim.checked_mul(PQ_KC) {
                            return Err("dump codebook panel shape mismatch".into());
                        }
                        r.check_len(clen, 4, "dump codebook")?;
                        let mut centroids = Vec::with_capacity(clen);
                        for _ in 0..clen {
                            centroids.push(r.f32()?);
                        }
                        Some(PqCodebook::from_parts(cdim, sub, m, kc, centroids))
                    }
                };
                let clen = r.u64()? as usize;
                let codes = r.take(clen)?.to_vec();
                if rows != 0 && rows != n {
                    return Err("dump PQ row count mismatch".into());
                }
                let m = codebook.as_ref().map_or(0, PqCodebook::m);
                if Some(clen) != rows.checked_mul(m) {
                    return Err("dump PQ code shape mismatch".into());
                }
                pq = Some(PqStore::from_parts(cfg, codebook, codes, rows));
            }
            _ => return Err("dump has unknown tier tag".into()),
        }
        if !r.is_empty() {
            return Err("dump has trailing bytes".into());
        }
        // RNG continuity: one f64 level draw was consumed per stored vector
        // (insert and build_batch both draw exactly once per id, and ids are
        // never reused), so fast-forwarding n draws reproduces the live
        // index's RNG state exactly.
        let mut rng = StdRng::seed_from_u64(config.seed);
        for _ in 0..n {
            let _: f64 = rng.random();
        }
        let level_norm = 1.0 / (config.m as f64).ln();
        Ok(Hnsw {
            config,
            metric,
            vectors,
            norms,
            nodes,
            entry,
            rng,
            level_norm,
            dim,
            dead,
            live,
            quant,
            pq,
        })
    }
}

/// Magic prefix of an [`Hnsw::dump`] blob.
const DUMP_MAGIC: &[u8] = b"PASHNSW1";

/// Little-endian scalar codec for the dump format. `f32`s travel as raw
/// bits so round trips are bit-exact.
mod wire {
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f32(out: &mut Vec<u8>, v: f32) {
        put_u32(out, v.to_bits());
    }

    /// Bounds-checked cursor over a dump buffer.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub fn new(buf: &'a [u8]) -> Reader<'a> {
            Reader { buf, pos: 0 }
        }

        pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
            if self.buf.len() - self.pos < n {
                return Err("dump truncated".into());
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        pub fn u8(&mut self) -> Result<u8, String> {
            Ok(self.take(1)?[0])
        }

        pub fn u32(&mut self) -> Result<u32, String> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
        }

        pub fn u64(&mut self) -> Result<u64, String> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
        }

        pub fn f32(&mut self) -> Result<f32, String> {
            Ok(f32::from_bits(self.u32()?))
        }

        pub fn is_empty(&self) -> bool {
            self.pos == self.buf.len()
        }

        /// Checks that `count` items of `size` bytes each fit in the bytes
        /// left, before the caller sizes an allocation by `count`.
        pub fn check_len(&self, count: usize, size: usize, what: &str) -> Result<(), String> {
            match count.checked_mul(size) {
                Some(bytes) if bytes <= self.buf.len() - self.pos => Ok(()),
                _ => Err(format!("{what} length exceeds the remaining bytes")),
            }
        }
    }
}

/// Serializable state of an [`Hnsw`] index: graph, prepared vectors and
/// their original norms, entry point, removed ids. The quantized codes are
/// not part of the snapshot — re-enable with [`Hnsw::set_quantization`]
/// after restore (requantization is deterministic, so the codes come back
/// bit-identical).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HnswSnapshot {
    config: HnswConfig,
    vectors: Vec<Vec<f32>>,
    norms: Vec<f32>,
    nodes: Vec<Node>,
    entry: Option<usize>,
    removed: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactIndex;
    use crate::metric::{CosineDistance, EuclideanDistance};
    use rand::RngExt;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()).collect()
    }

    #[test]
    fn empty_index_searches_empty() {
        let idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        assert!(idx.search(&[1.0, 2.0], 3, 16).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn single_element() {
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        idx.insert(vec![1.0, 1.0]);
        let hits = idx.search(&[0.0, 0.0], 5, 16);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn exact_match_is_found_first() {
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        let vecs = random_vectors(100, 8, 1);
        for v in &vecs {
            idx.insert(v.clone());
        }
        let hits = idx.search(&vecs[37], 1, 50);
        assert_eq!(hits[0].id, 37);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn recall_at_10_vs_exact() {
        let vecs = random_vectors(500, 16, 7);
        let mut hnsw =
            Hnsw::new(HnswConfig { m: 12, ef_construction: 80, seed: 3 }, EuclideanDistance);
        let mut exact = ExactIndex::new(EuclideanDistance);
        for v in &vecs {
            hnsw.insert(v.clone());
            exact.insert(v.clone());
        }
        let queries = random_vectors(20, 16, 99);
        let mut hits_total = 0usize;
        for q in &queries {
            let truth: std::collections::HashSet<usize> =
                exact.search(q, 10).into_iter().map(|n| n.id).collect();
            let approx = hnsw.search(q, 10, 80);
            hits_total += approx.iter().filter(|n| truth.contains(&n.id)).count();
        }
        let recall = hits_total as f64 / (10 * queries.len()) as f64;
        assert!(recall >= 0.9, "recall@10 = {recall}");
    }

    #[test]
    fn results_sorted_by_distance() {
        let vecs = random_vectors(100, 4, 11);
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        for v in &vecs {
            idx.insert(v.clone());
        }
        let hits = idx.search(&vecs[0], 10, 64);
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn radius_search_only_returns_within_radius() {
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        idx.insert(vec![0.0, 0.0]);
        idx.insert(vec![0.1, 0.0]);
        idx.insert(vec![5.0, 5.0]);
        let hits = idx.search_radius(&[0.0, 0.0], 0.5, 16);
        let ids: Vec<usize> = hits.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let vecs = random_vectors(80, 8, 5);
        let build = |seed| {
            let mut idx =
                Hnsw::new(HnswConfig { seed, ..HnswConfig::default() }, EuclideanDistance);
            for v in &vecs {
                idx.insert(v.clone());
            }
            idx.search(&vecs[3], 5, 32).into_iter().map(|n| n.id).collect::<Vec<_>>()
        };
        assert_eq!(build(42), build(42));
    }

    #[test]
    fn snapshot_round_trip_preserves_searches() {
        let vecs = random_vectors(120, 8, 17);
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        for v in &vecs {
            idx.insert(v.clone());
        }
        let json = serde_json::to_string(&idx.snapshot()).unwrap();
        let snapshot: HnswSnapshot = serde_json::from_str(&json).unwrap();
        let restored = Hnsw::from_snapshot(snapshot, EuclideanDistance);
        for q in vecs.iter().step_by(13) {
            let a: Vec<usize> = idx.search(q, 5, 32).into_iter().map(|n| n.id).collect();
            let b: Vec<usize> = restored.search(q, 5, 32).into_iter().map(|n| n.id).collect();
            assert_eq!(a, b);
        }
        assert_eq!(restored.len(), idx.len());
    }

    #[test]
    fn restored_index_accepts_new_inserts() {
        let vecs = random_vectors(60, 4, 19);
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        for v in &vecs {
            idx.insert(v.clone());
        }
        let mut restored = Hnsw::from_snapshot(idx.snapshot(), EuclideanDistance);
        let new_point = vec![9.0, 9.0, 9.0, 9.0];
        let id = restored.insert(new_point.clone());
        assert_eq!(id, 60);
        let hit = &restored.search(&new_point, 1, 32)[0];
        assert_eq!(hit.id, 60);
        assert!(hit.distance < 1e-5);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_m_rejected() {
        let _ = Hnsw::new(HnswConfig { m: 1, ..HnswConfig::default() }, EuclideanDistance);
    }

    #[test]
    fn batch_build_assigns_sequential_ids() {
        let vecs = random_vectors(150, 8, 23);
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        let ids = idx.build_batch(vecs);
        assert_eq!(ids, (0..150).collect::<Vec<_>>());
        assert_eq!(idx.len(), 150);
    }

    #[test]
    fn batch_build_is_thread_count_invariant() {
        let vecs = random_vectors(300, 8, 29);
        let build = |threads: usize| {
            pas_par::with_threads(threads, || {
                let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
                idx.build_batch(vecs.clone());
                let snap = serde_json::to_string(&idx.snapshot()).unwrap();
                let probes: Vec<Vec<usize>> = vecs
                    .iter()
                    .step_by(17)
                    .map(|q| idx.search(q, 5, 48).into_iter().map(|n| n.id).collect())
                    .collect();
                (snap, probes)
            })
        };
        let serial = build(1);
        assert_eq!(build(2), serial);
        assert_eq!(build(8), serial);
    }

    #[test]
    fn batch_build_recall_matches_incremental() {
        let vecs = random_vectors(500, 16, 7);
        let mut hnsw =
            Hnsw::new(HnswConfig { m: 12, ef_construction: 80, seed: 3 }, EuclideanDistance);
        hnsw.build_batch(vecs.clone());
        let mut exact = ExactIndex::new(EuclideanDistance);
        for v in &vecs {
            exact.insert(v.clone());
        }
        let queries = random_vectors(20, 16, 99);
        let mut hits_total = 0usize;
        for q in &queries {
            let truth: std::collections::HashSet<usize> =
                exact.search(q, 10).into_iter().map(|n| n.id).collect();
            let approx = hnsw.search(q, 10, 80);
            hits_total += approx.iter().filter(|n| truth.contains(&n.id)).count();
        }
        let recall = hits_total as f64 / (10 * queries.len()) as f64;
        assert!(recall >= 0.9, "batch-built recall@10 = {recall}");
    }

    #[test]
    fn batch_build_draws_same_levels_as_incremental() {
        // The level sequence comes from the index RNG in input order, so a
        // batch build consumes exactly the same draws as incremental inserts.
        let vecs = random_vectors(40, 4, 31);
        let mut a = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        a.build_batch(vecs.clone());
        let mut b = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        for v in &vecs {
            b.insert(v.clone());
        }
        let levels =
            |idx: &Hnsw<EuclideanDistance>| idx.nodes.iter().map(|n| n.level()).collect::<Vec<_>>();
        assert_eq!(levels(&a), levels(&b));
    }

    #[test]
    fn batch_build_on_top_of_existing_index() {
        let vecs = random_vectors(120, 8, 37);
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        for v in &vecs[..40] {
            idx.insert(v.clone());
        }
        let ids = idx.build_batch(vecs[40..].to_vec());
        assert_eq!(ids.first(), Some(&40));
        assert_eq!(idx.len(), 120);
        let hits = idx.search(&vecs[100], 1, 64);
        assert_eq!(hits[0].id, 100);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn cosine_store_is_prenormalized_and_keeps_norms() {
        let mut idx = Hnsw::new(HnswConfig::default(), CosineDistance);
        idx.insert(vec![3.0, 0.0, 4.0]);
        idx.insert(vec![0.0, 0.0, 0.0]);
        assert_eq!(idx.norm(0), 5.0);
        assert!((pas_kernels::sum_sq(idx.vector(0)).sqrt() - 1.0).abs() < 1e-6);
        assert_eq!(idx.norm(1), 0.0);
        assert_eq!(idx.vector(1), &[0.0, 0.0, 0.0]);
        // Scale-invariant probe: an unnormalized query parallel to vector 0
        // still lands at distance ~0.
        let hits = idx.search(&[30.0, 0.0, 40.0], 1, 16);
        assert_eq!(hits[0].id, 0);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn batch_build_prepares_like_incremental_inserts() {
        let vecs: Vec<Vec<f32>> = random_vectors(90, 8, 41)
            .into_iter()
            .map(|v| v.into_iter().map(|x| x * 3.0).collect())
            .collect();
        let mut batch = Hnsw::new(HnswConfig::default(), CosineDistance);
        batch.build_batch(vecs.clone());
        let mut incremental = Hnsw::new(HnswConfig::default(), CosineDistance);
        for v in &vecs {
            incremental.insert(v.clone());
        }
        for id in 0..vecs.len() {
            assert_eq!(batch.vector(id), incremental.vector(id), "stored vector {id}");
            assert_eq!(batch.norm(id).to_bits(), incremental.norm(id).to_bits(), "norm {id}");
        }
    }

    #[test]
    fn batch_build_empty_input_is_noop() {
        let mut idx = Hnsw::new(HnswConfig::default(), EuclideanDistance);
        assert!(idx.build_batch(Vec::new()).is_empty());
        assert!(idx.is_empty());
    }

    fn cosine_index(n: usize, dim: usize, seed: u64) -> (Hnsw<CosineDistance>, Vec<Vec<f32>>) {
        let vecs = random_vectors(n, dim, seed);
        let mut idx = Hnsw::new(HnswConfig::default(), CosineDistance);
        idx.build_batch(vecs.clone());
        (idx, vecs)
    }

    fn ids_and_bits(hits: &[Neighbor]) -> Vec<(usize, u32)> {
        hits.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    }

    #[test]
    fn quantized_search_matches_f32_search_exactly() {
        let (mut idx, _vecs) = cosine_index(300, 24, 43);
        let queries = random_vectors(12, 24, 101);
        let plain: Vec<_> = queries.iter().map(|q| ids_and_bits(&idx.search(q, 5, 48))).collect();
        idx.set_quantization(true);
        assert!(idx.quantized());
        // ~4x fewer probe-path bytes than the 4*dim f32 rows.
        assert_eq!(idx.probe_bytes_per_vector(), 24 + 4);
        let quant: Vec<_> = queries.iter().map(|q| ids_and_bits(&idx.search(q, 5, 48))).collect();
        assert_eq!(plain, quant, "quantized+rerank results must match pure f32");
        idx.set_quantization(false);
        let back: Vec<_> = queries.iter().map(|q| ids_and_bits(&idx.search(q, 5, 48))).collect();
        assert_eq!(plain, back);
    }

    #[test]
    fn quantized_insert_after_enabling_keeps_rows_aligned() {
        let (mut idx, _vecs) = cosine_index(60, 8, 47);
        idx.set_quantization(true);
        let extra = random_vectors(20, 8, 48);
        for v in &extra {
            idx.insert(v.clone());
        }
        let hits = idx.search(&extra[7], 1, 32);
        assert_eq!(hits[0].id, 60 + 7);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn search_batch_matches_sequential_search() {
        let (mut idx, vecs) = cosine_index(250, 16, 53);
        let queries: Vec<Vec<f32>> = random_vectors(9, 16, 202)
            .into_iter()
            .chain([vecs[3].clone(), vecs[3].clone()]) // duplicates share panels
            .collect();
        for tier in ["f32", "int8", "pq"] {
            match tier {
                "int8" => idx.set_quantization(true),
                "pq" => idx.set_product_quantization(true),
                _ => idx.set_quantization(false),
            }
            let sequential: Vec<_> =
                queries.iter().map(|q| ids_and_bits(&idx.search(q, 6, 40))).collect();
            let batched: Vec<_> =
                idx.search_batch(&queries, 6, 40).iter().map(|hits| ids_and_bits(hits)).collect();
            assert_eq!(sequential, batched, "tier={tier}");
            // Single-query batches stay equal too (all-lazy path).
            let lone = idx.search_batch(&queries[..1], 6, 40);
            assert_eq!(ids_and_bits(&lone[0]), sequential[0], "tier={tier} single-query");
        }
        idx.set_product_quantization(false);
        assert!(idx.search_batch(&[], 4, 16).is_empty());
        let empty = Hnsw::new(HnswConfig::default(), CosineDistance);
        assert_eq!(empty.search_batch(&queries, 4, 16), vec![Vec::new(); queries.len()]);
    }

    /// Clustered unit-ish vectors: points around `clusters` smooth anchors.
    fn clustered_vectors(n: usize, clusters: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let c = (i % clusters) as f32;
                (0..dim)
                    .map(|d| (d as f32 * 0.61 + c * 2.3).sin() + (i as f32 * 0.013).sin() * 0.05)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pq_search_recall_vs_f32_search() {
        let vecs = clustered_vectors(400, 11, 32);
        let mut idx = Hnsw::new(HnswConfig { m: 8, ef_construction: 48, seed: 7 }, CosineDistance);
        idx.build_batch(vecs.clone());
        let plain: Vec<_> = vecs.iter().step_by(23).map(|q| idx.search(q, 10, 48)).collect();
        idx.set_product_quantization(true);
        assert!(idx.product_quantized());
        // dim 32 → 4 bytes per vector, 8x+ below the int8 tier's dim+4.
        assert_eq!(idx.probe_bytes_per_vector(), 4);
        let (mut hit, mut total) = (0usize, 0usize);
        for (want, q) in plain.iter().zip(vecs.iter().step_by(23)) {
            let got = idx.search(q, 10, 48);
            let want_ids: Vec<usize> = want.iter().map(|h| h.id).collect();
            hit += got.iter().filter(|h| want_ids.contains(&h.id)).count();
            total += want.len();
            // PQ results carry exact f32 distances (re-ranked).
            for g in &got {
                let exact = CosineDistance.prepared_distance(
                    &{
                        let mut p = q.clone();
                        CosineDistance.prepare(&mut p);
                        p
                    },
                    idx.vector(g.id),
                );
                assert_eq!(g.distance.to_bits(), exact.to_bits());
            }
        }
        assert!(hit as f64 >= total as f64 * 0.95, "recall {hit}/{total} below 0.95");
    }

    #[test]
    fn pq_lazy_training_and_tier_exclusivity() {
        let mut idx = Hnsw::new(HnswConfig::default(), CosineDistance);
        idx.set_product_quantization(true);
        let vecs = clustered_vectors(PQ_TRAIN_MIN + 20, 5, 8);
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(v.clone());
            if i + 1 < PQ_TRAIN_MIN {
                // Below the floor the probe path is still f32.
                assert_eq!(idx.probe_bytes_per_vector(), 8 * 4, "insert {i}");
            }
        }
        // Trained at the threshold; later inserts encode on the fly.
        assert_eq!(idx.probe_bytes_per_vector(), 1);
        let hits = idx.search(&vecs[70], 1, 32);
        assert_eq!(hits[0].id, 70);
        assert!(hits[0].distance < 1e-6);
        // Enabling int8 drops PQ and vice versa.
        idx.set_quantization(true);
        assert!(idx.quantized() && !idx.product_quantized());
        idx.set_product_quantization(true);
        assert!(idx.product_quantized() && !idx.quantized());
    }

    #[test]
    fn pq_training_is_thread_count_invariant() {
        let vecs = clustered_vectors(150, 9, 16);
        let build = |threads: usize| {
            pas_par::with_threads(threads, || {
                let mut idx =
                    Hnsw::new(HnswConfig { m: 8, ef_construction: 32, seed: 3 }, CosineDistance);
                idx.build_batch(vecs.clone());
                idx.set_product_quantization(true);
                vecs.iter()
                    .step_by(13)
                    .map(|q| ids_and_bits(&idx.search(q, 5, 32)))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(build(1), build(8));
    }

    #[test]
    fn pq_search_skips_removed_nodes() {
        let vecs = clustered_vectors(160, 7, 16);
        let mut idx = Hnsw::new(HnswConfig::default(), CosineDistance);
        idx.build_batch(vecs.clone());
        idx.set_product_quantization(true);
        for id in (0..160).step_by(5) {
            idx.remove(id);
        }
        for (qi, q) in vecs.iter().enumerate().step_by(11) {
            for hit in idx.search(q, 5, 48) {
                assert!(!idx.is_removed(hit.id), "query {qi} returned removed id {}", hit.id);
            }
        }
    }

    #[test]
    fn remove_unlinks_and_searches_skip_removed() {
        let (mut idx, vecs) = cosine_index(200, 8, 59);
        for id in (0..200).step_by(4) {
            assert!(idx.remove(id));
            assert!(!idx.remove(id), "second remove is a no-op");
        }
        assert_eq!(idx.len(), 200);
        assert_eq!(idx.live_len(), 150);
        for (qi, q) in vecs.iter().enumerate().step_by(7) {
            let hits = idx.search(q, 5, 64);
            assert!(!hits.is_empty());
            for hit in &hits {
                assert!(!idx.is_removed(hit.id), "query {qi} returned removed id {}", hit.id);
            }
            // A live query vector must still find itself through the
            // re-linked graph.
            if qi % 4 != 0 {
                assert_eq!(hits[0].id, qi, "query {qi} lost itself after removals");
                assert!(hits[0].distance < 1e-6);
            }
        }
    }

    #[test]
    fn remove_everything_then_reinsert() {
        let (mut idx, vecs) = cosine_index(40, 6, 61);
        for id in 0..40 {
            idx.remove(id);
        }
        assert_eq!(idx.live_len(), 0);
        assert!(idx.search(&vecs[0], 3, 16).is_empty());
        let id = idx.insert(vecs[1].clone());
        assert_eq!(id, 40, "ids stay positional after removals");
        let hits = idx.search(&vecs[1], 1, 16);
        assert_eq!(hits[0].id, 40);
    }

    #[test]
    fn remove_survives_snapshot_round_trip() {
        let (mut idx, vecs) = cosine_index(120, 8, 67);
        for id in (0..120).step_by(3) {
            idx.remove(id);
        }
        let json = serde_json::to_string(&idx.snapshot()).unwrap();
        let snapshot: HnswSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored = Hnsw::from_snapshot(snapshot, CosineDistance);
        assert_eq!(restored.live_len(), idx.live_len());
        restored.set_quantization(true);
        for q in vecs.iter().step_by(11) {
            let a: Vec<usize> = idx.search(q, 5, 48).into_iter().map(|n| n.id).collect();
            let b: Vec<usize> = restored.search(q, 5, 48).into_iter().map(|n| n.id).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn dump_load_round_trip_is_bit_identical_on_every_tier() {
        for tier in ["f32", "int8", "pq"] {
            let (mut idx, vecs) = cosine_index(150, 16, 71);
            for id in (0..150).step_by(7) {
                idx.remove(id);
            }
            match tier {
                "int8" => idx.set_quantization(true),
                "pq" => idx.set_product_quantization(true),
                _ => {}
            }
            let loaded = Hnsw::load(&idx.dump(), CosineDistance).unwrap();
            assert_eq!(loaded.len(), idx.len());
            assert_eq!(loaded.live_len(), idx.live_len());
            assert_eq!(loaded.quantized(), idx.quantized());
            assert_eq!(loaded.product_quantized(), idx.product_quantized());
            for q in vecs.iter().step_by(9) {
                assert_eq!(
                    ids_and_bits(&idx.search(q, 5, 48)),
                    ids_and_bits(&loaded.search(q, 5, 48)),
                    "tier {tier}"
                );
            }
            // The dump itself round-trips bit-exactly.
            assert_eq!(idx.dump(), loaded.dump(), "tier {tier}");
        }
    }

    #[test]
    fn loaded_index_inserts_bit_identically_to_never_closed() {
        let vecs = random_vectors(120, 12, 73);
        let mut live = Hnsw::new(HnswConfig::default(), CosineDistance);
        for v in &vecs[..80] {
            live.insert(v.clone());
        }
        live.remove(10);
        live.remove(33);
        let mut loaded = Hnsw::load(&live.dump(), CosineDistance).unwrap();
        // Same subsequent inserts on both sides: the loaded index must draw
        // the same levels (RNG fast-forward) and build the same graph.
        for v in &vecs[80..] {
            assert_eq!(live.insert(v.clone()), loaded.insert(v.clone()));
        }
        assert_eq!(live.dump(), loaded.dump());
        for q in vecs.iter().step_by(13) {
            assert_eq!(
                ids_and_bits(&live.search(q, 5, 32)),
                ids_and_bits(&loaded.search(q, 5, 32))
            );
        }
    }

    #[test]
    fn dump_load_empty_and_untrained_pq() {
        let mut idx: Hnsw<CosineDistance> = Hnsw::new(HnswConfig::default(), CosineDistance);
        let loaded = Hnsw::load(&idx.dump(), CosineDistance).unwrap();
        assert!(loaded.is_empty());
        // PQ enabled but below the training threshold: tier survives untrained.
        idx.set_product_quantization(true);
        for v in random_vectors(10, 8, 79) {
            idx.insert(v);
        }
        let loaded = Hnsw::load(&idx.dump(), CosineDistance).unwrap();
        assert!(loaded.product_quantized());
        assert_eq!(loaded.dump(), idx.dump());
    }

    #[test]
    fn load_rejects_corrupt_dumps() {
        let (idx, _vecs) = cosine_index(20, 8, 83);
        let bytes = idx.dump();
        assert!(Hnsw::<CosineDistance>::load(&bytes[..bytes.len() - 1], CosineDistance).is_err());
        assert!(Hnsw::<CosineDistance>::load(b"PASWRONG", CosineDistance).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Hnsw::<CosineDistance>::load(&trailing, CosineDistance).is_err());
    }

    #[test]
    fn load_rejects_hostile_length_fields() {
        let (idx, vecs) = cosine_index(20, 8, 89);
        let bytes = idx.dump();
        let n = idx.len();
        // Header: magic, then m, ef, seed, dim, n, entry, live as u64s;
        // then n norms (f32), n dead flags (u8), n length-prefixed vectors.
        let header = DUMP_MAGIC.len() + 7 * 8;
        let vectors: usize = vecs.iter().map(|v| 4 + 4 * v.len()).sum();
        let node0_layers = header + 4 * n + n + vectors;
        let set_u32 = |at: usize, v: u32| {
            let mut b = bytes.clone();
            b[at..at + 4].copy_from_slice(&v.to_le_bytes());
            b
        };
        let set_u64 = |at: usize, v: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            b
        };
        // Node 0's layer count at u32::MAX once aborted on a ~100 GB
        // allocation; it must be a plain error.
        match Hnsw::load(&set_u32(node0_layers, u32::MAX), CosineDistance) {
            Err(err) => assert!(err.contains("layer count"), "{err}"),
            Ok(_) => panic!("a u32::MAX layer count loaded"),
        }
        // Node 0's first neighbor count, the dimension and vector 0's length.
        assert!(Hnsw::load(&set_u32(node0_layers + 4, u32::MAX), CosineDistance).is_err());
        assert!(Hnsw::load(&set_u64(DUMP_MAGIC.len() + 24, u64::MAX), CosineDistance).is_err());
        assert!(Hnsw::load(&set_u64(DUMP_MAGIC.len() + 24, 1 << 31), CosineDistance).is_err());
        let vector0 = header + 4 * n + n;
        assert!(Hnsw::load(&set_u32(vector0, u32::MAX), CosineDistance).is_err());
        // The untouched dump still loads.
        assert!(Hnsw::load(&bytes, CosineDistance).is_ok());
    }

    #[test]
    fn load_rejects_hostile_quantized_shapes() {
        let (mut idx, _) = cosine_index(20, 8, 97);
        idx.set_quantization(true);
        let mut bytes = idx.dump();
        // The int8 tier's trailer is [tag, qdim u64, rows u64, codes, scales].
        let tag = bytes.len() - 20 * 8 - 20 * 4 - 17;
        assert_eq!(bytes[tag], 1);
        // 20 rows × (8 + 2^62) wraps to exactly the 160 code bytes present.
        bytes[tag + 1..tag + 9].copy_from_slice(&(8 + (1u64 << 62)).to_le_bytes());
        assert!(Hnsw::load(&bytes, CosineDistance).is_err());
    }
}
