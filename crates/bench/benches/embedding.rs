//! Sentence-embedding throughput: the dedup front-end of §3.1.
//!
//! `embed_1000_prompts` is the API row (text in, unit vector out). The two
//! rows beside it split that cost into its stages: `feature_bag_1000_prompts`
//! (normalize, hash words and trigrams, sort, aggregate) and
//! `project_1000_bags` (the sign projection over pre-extracted bags, plus
//! normalization), so a regression in either stage shows on its own row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use pas_data::{Corpus, CorpusConfig};
use pas_embed::{feature_bag, Embedder, FeatureBag, NgramEmbedder};

const DIMS: [usize; 3] = [32, 64, 128];

fn corpus_texts() -> Vec<String> {
    Corpus::generate(&CorpusConfig { size: 1000, seed: 8, ..CorpusConfig::default() })
        .records
        .into_iter()
        .map(|r| r.text)
        .collect()
}

fn bench_embed(c: &mut Criterion) {
    let texts = corpus_texts();
    let bytes: usize = texts.iter().map(String::len).sum();

    let mut group = c.benchmark_group("embed_1000_prompts");
    group.throughput(Throughput::Bytes(bytes as u64));
    for &dim in &DIMS {
        let embedder = NgramEmbedder::new(dim, 7);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &embedder, |b, e| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for t in &texts {
                    acc += e.embed(t)[0];
                }
                black_box(acc)
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("feature_bag_1000_prompts");
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("all", |b| {
        b.iter(|| {
            let mut features = 0usize;
            for t in &texts {
                features += feature_bag(t).len();
            }
            black_box(features)
        });
    });
    group.finish();

    let bags: Vec<FeatureBag> = texts.iter().map(|t| feature_bag(t)).collect();
    let features: usize = bags.iter().map(FeatureBag::len).sum();
    let mut group = c.benchmark_group("project_1000_bags");
    group.throughput(Throughput::Elements(features as u64));
    for &dim in &DIMS {
        let embedder = NgramEmbedder::new(dim, 7);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &embedder, |b, e| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for bag in &bags {
                    acc += e.embed_bag(bag)[0];
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_cosine(c: &mut Criterion) {
    let e = NgramEmbedder::new(64, 7);
    let a = e.embed("how do I sort a list of a million integers efficiently");
    let b_vec = e.embed("how to sort one million integers fast");
    c.bench_function("cosine_64d", |b| {
        b.iter(|| black_box(pas_embed::cosine(&a, &b_vec)));
    });
}

criterion_group!(benches, bench_embed, bench_cosine);
criterion_main!(benches);
