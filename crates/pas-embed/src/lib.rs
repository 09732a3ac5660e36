//! Deterministic sentence embeddings.
//!
//! The paper's data-selection pipeline embeds every prompt with a SimCSE-bge
//! model before HNSW deduplication (§3.1). This crate provides the workspace
//! substitute: a hashed n-gram TF-IDF representation projected into a dense
//! unit vector with a seeded sign-random projection. The embedding is
//! deterministic (no model weights to ship), locality-preserving (texts that
//! share n-grams land close in cosine space), and fast enough to embed the
//! full synthetic corpus in milliseconds — exactly the properties dedup
//! needs.
//!
//! Layering:
//! - [`vector`] — dense `f32` vector arithmetic (dot, norm, cosine).
//! - [`features`] — hashed lexical feature extraction (words + char n-grams).
//! - [`tfidf`] — corpus-level inverse document frequency weighting.
//! - [`embedder`] — the [`Embedder`] trait and the default
//!   [`NgramEmbedder`] implementation.
//! - [`cache`] — the memoized [`EmbeddingCache`] wrapper with parallel
//!   batch embedding via `pas_par`.

pub mod cache;
pub mod embedder;
pub mod features;
#[cfg(test)]
mod reference;
pub mod tfidf;
pub mod vector;

pub use cache::EmbeddingCache;
pub use embedder::{Embedder, NgramEmbedder};
pub use features::{feature_bag, FeatureBag};
pub use tfidf::IdfModel;
pub use vector::{cosine, dot, l2_norm, normalize_in_place};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_duplicates_are_close_distinct_texts_are_far() {
        let emb = NgramEmbedder::default();
        let a = emb.embed("How do I sort a list of integers in Rust?");
        let b = emb.embed("How do I sort a list of integers in Rust??");
        let c = emb.embed("Write a poem about the autumn moon festival");
        let near = cosine(&a, &b);
        let far = cosine(&a, &c);
        assert!(near > 0.95, "near-duplicate cosine too low: {near}");
        assert!(far < 0.5, "unrelated cosine too high: {far}");
        assert!(near > far);
    }
}
