//! The four workloads, generated from the benchmark seed alone. The
//! program under test only ever sees the generated `Request`s.

use pas_cluster::{fleet_workloads, ClusterConfig, Membership};
use pas_data::{Corpus, CorpusConfig};
use pas_fault::NetFaultProfile;
use pas_gateway::{generate, GatewayConfig, Request, SemanticCacheConfig, WorkloadConfig};

use crate::{Kind, Scale};

/// Near-tier threshold on every workload: the serving default the
/// gateway and cluster soaks run at.
pub const TAU: f32 = 0.15;
/// LRU capacity of the single-gateway `hot` and `cold` workloads.
pub const SMALL_CAPACITY: usize = 512;
/// Independent gateway runs the `hot` workload is split into.
pub const HOT_STREAMS: usize = 40;
/// Fleet size of the `fleet` workload.
pub const FLEET_NODES: usize = 6;
/// Per-node request count the fleet's chaos script was written for; its
/// event times scale by `requests_per_node / FLEET_SCRIPT_REQUESTS`.
const FLEET_SCRIPT_REQUESTS: u64 = 600;

/// A generated workload and the serving configuration it runs under.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    /// Request streams: one per fresh gateway (`hot`, `cold`), one per
    /// fleet node (`fleet`), or the single stream `restart` splits in two.
    pub streams: Vec<Vec<Request>>,
    /// Gateway configuration (per node, for `fleet`).
    pub gateway: GatewayConfig,
    /// Fleet configuration (`fleet` only).
    pub cluster: Option<ClusterConfig>,
}

impl Workload {
    /// Every request, streams concatenated in order.
    pub fn requests(&self) -> Vec<&Request> {
        self.streams.iter().flatten().collect()
    }

    pub fn len(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn gateway(capacity: usize) -> GatewayConfig {
    GatewayConfig {
        replicas: 2,
        cache: SemanticCacheConfig { capacity, tau: TAU, ..SemanticCacheConfig::default() },
        ..GatewayConfig::default()
    }
}

/// Template Zipf traffic (the gateway soak's default shape).
fn template(requests: usize, seed: u64) -> Vec<Request> {
    generate(&WorkloadConfig { requests, seed, ..WorkloadConfig::default() })
}

/// Corpus traffic: the template stream's open-loop arrival times carrying
/// the prompts of `pas_data`'s 14-category corpus, in corpus order
/// (English and Chinese text, surface duplicates, junk).
fn corpus_traffic(requests: usize, seed: u64) -> Vec<Request> {
    let corpus = Corpus::generate(&CorpusConfig {
        size: requests,
        seed: pas_par::derive_seed(seed, 1),
        ..CorpusConfig::default()
    });
    template(requests, seed)
        .into_iter()
        .zip(corpus.records)
        .map(|(r, record)| Request { prompt: record.text, ..r })
        .collect()
}

/// The CI replication-plane soak (partition, crash, leave, rejoin,
/// anti-entropy, gossip, quiet tail), its event times scaled from 600
/// requests per node to `per_node`.
fn fleet_config(per_node: usize) -> ClusterConfig {
    let at = |t: u64| t * per_node as u64 / FLEET_SCRIPT_REQUESTS;
    ClusterConfig {
        nodes: FLEET_NODES,
        replication: 2,
        gateway: gateway(SemanticCacheConfig::default().capacity),
        net: NetFaultProfile::lossy().with_partition(at(400), at(1200), vec![3]),
        script: vec![
            (at(700), Membership::Crash(2)),
            (at(900), Membership::Leave(1)),
            (at(1600), Membership::Join(1)),
        ],
        ae_interval_ms: 60,
        gossip_interval_ms: 40,
        quiet_ms: 1600,
        ..ClusterConfig::default()
    }
}

/// Generates `kind`'s workload from `seed` at `scale`.
pub fn prepare(kind: Kind, seed: u64, scale: &Scale) -> Workload {
    // One derived seed per workload, so two workloads never share a stream.
    let seed = pas_par::derive_seed(seed, kind as u64);
    match kind {
        Kind::Hot => Workload {
            kind,
            // Independent streams on fresh gateways: which variant of a
            // popular prompt arrives first decides a whole stream's near-hit
            // mix, so one long stream would make the figures a lottery on
            // the seed.
            streams: (0..HOT_STREAMS as u64)
                .map(|k| template(scale.hot_requests / HOT_STREAMS, pas_par::derive_seed(seed, k)))
                .collect(),
            gateway: gateway(SMALL_CAPACITY),
            cluster: None,
        },
        Kind::Cold => Workload {
            kind,
            streams: vec![corpus_traffic(scale.cold_requests, seed)],
            gateway: gateway(SMALL_CAPACITY),
            cluster: None,
        },
        Kind::Fleet => {
            let base = WorkloadConfig {
                requests: scale.fleet_requests_per_node,
                seed,
                ..WorkloadConfig::default()
            };
            let cluster = fleet_config(scale.fleet_requests_per_node);
            Workload {
                kind,
                streams: fleet_workloads(&base, FLEET_NODES),
                gateway: cluster.gateway.clone(),
                cluster: Some(cluster),
            }
        }
        Kind::Restart => Workload {
            kind,
            streams: vec![corpus_traffic(scale.restart_requests, seed)],
            gateway: gateway(SemanticCacheConfig::default().capacity),
            cluster: None,
        },
    }
}
