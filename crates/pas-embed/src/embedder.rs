//! Dense embedding via seeded sign-random projection.
//!
//! Each hashed feature deterministically seeds a splitmix64 stream that
//! yields a ±1 sign per output dimension; the embedding is the weighted sum
//! of those sign vectors, L2-normalized. By the Johnson–Lindenstrauss
//! property, cosine similarity in the projected space approximates cosine
//! similarity of the sparse TF bags — which is what the HNSW dedup consumes.

use crate::features::{with_feature_entries, FeatureBag};
use crate::vector::normalize_in_place;

/// Anything that maps text to a fixed-dimension unit vector.
pub trait Embedder {
    /// Output dimensionality.
    fn dim(&self) -> usize;

    /// Embeds one text into a unit vector of [`Self::dim`] components.
    fn embed(&self, text: &str) -> Vec<f32>;

    /// Embeds a batch (default: map [`Self::embed`]).
    fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        texts.iter().map(|t| self.embed(t)).collect()
    }
}

/// The workspace's SimCSE-bge substitute: hashed n-gram features projected
/// with per-feature sign streams.
#[derive(Debug, Clone)]
pub struct NgramEmbedder {
    dim: usize,
    seed: u64,
}

impl Default for NgramEmbedder {
    fn default() -> Self {
        NgramEmbedder::new(64, 0x5eed_cafe)
    }
}

const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output for an already-advanced `state`.
#[inline]
fn splitmix64_mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Slots per sign lane: one byte of a sign word.
const LANE: usize = 8;
/// Slots per sign word.
const WORD_SLOTS: usize = 64;

/// `SIGN_MASKS[b][j]` is what to XOR into `w.to_bits()` for slot `j` of a
/// lane whose sign byte is `b`: 0 keeps `+w` (bit set), the f32 sign bit
/// turns it into `-w` (bit clear). Negation is exactly a sign-bit flip, so
/// the XOR gives `if bit { w } else { -w }` without a branch.
static SIGN_MASKS: [[u32; LANE]; 256] = sign_masks();

const fn sign_masks() -> [[u32; LANE]; 256] {
    let mut table = [[0u32; LANE]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut j = 0;
        while j < LANE {
            if (byte >> j) & 1 == 0 {
                table[byte][j] = 0x8000_0000;
            }
            j += 1;
        }
        byte += 1;
    }
    table
}

impl NgramEmbedder {
    /// Creates an embedder with output dimension `dim` (must be positive)
    /// and projection `seed`. Two embedders with the same parameters produce
    /// identical embeddings.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        NgramEmbedder { dim, seed }
    }

    /// Projects an explicit feature bag (used when the caller already has
    /// IDF-reweighted features).
    ///
    /// Feature `(h, w)` owns the splitmix64 stream seeded at `h ^ seed`;
    /// word `c` of that stream holds the signs of slots `64c..64c + 64`,
    /// bit `j` giving slot `64c + j` the value `+w` (set) or `-w` (clear).
    /// Slot `i` is `0.0` plus those values added in bag order, then the
    /// vector is L2-normalized. That per-slot summation order is the
    /// bit-identity contract (DESIGN.md §6): the loop below walks one
    /// 64-slot block at a time, drawing each feature's word `c` directly,
    /// and adds whole 8-slot lanes, but every slot still sees the same
    /// additions in the same order.
    pub fn project(&self, entries: &[(u64, f32)]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        let mut base = SPLITMIX_GAMMA;
        for block in out.chunks_mut(WORD_SLOTS) {
            let mut acc = [0.0f32; WORD_SLOTS];
            for &(h, w) in entries {
                let bits = splitmix64_mix((h ^ self.seed).wrapping_add(base));
                let w = w.to_bits();
                for (lane, slots) in acc.chunks_exact_mut(LANE).enumerate() {
                    let masks = &SIGN_MASKS[(bits >> (lane * LANE)) as u8 as usize];
                    for (slot, &mask) in slots.iter_mut().zip(masks) {
                        *slot += f32::from_bits(w ^ mask);
                    }
                }
            }
            block.copy_from_slice(&acc[..block.len()]);
            base = base.wrapping_add(SPLITMIX_GAMMA);
        }
        normalize_in_place(&mut out);
        out
    }

    /// Embeds a pre-extracted bag.
    pub fn embed_bag(&self, bag: &FeatureBag) -> Vec<f32> {
        self.project(bag.entries())
    }
}

impl Embedder for NgramEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        with_feature_entries(text, |entries| self.project(entries))
    }

    /// Parallel batch embedding. Each text embeds independently of every
    /// other (pure function of the text), so the ordered `par_map` returns
    /// exactly what the serial loop would.
    fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        pas_par::par_map(texts, |_, t| self.embed(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{cosine, l2_norm};

    #[test]
    fn embeddings_are_unit_norm() {
        let e = NgramEmbedder::default();
        let v = e.embed("a perfectly ordinary sentence");
        assert!((l2_norm(&v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_embeds_to_zero_vector() {
        let e = NgramEmbedder::default();
        let v = e.embed("");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn deterministic_across_instances() {
        let a = NgramEmbedder::new(32, 7).embed("determinism matters");
        let b = NgramEmbedder::new(32, 7).embed("determinism matters");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = NgramEmbedder::new(32, 1).embed("same text");
        let b = NgramEmbedder::new(32, 2).embed("same text");
        assert_ne!(a, b);
    }

    #[test]
    fn dim_is_respected() {
        let e = NgramEmbedder::new(17, 0);
        assert_eq!(e.embed("x").len(), 17);
        assert_eq!(e.dim(), 17);
    }

    #[test]
    fn paraphrase_closer_than_unrelated() {
        let e = NgramEmbedder::default();
        let base = e.embed("how can I quickly boil water in ancient times");
        let para = e.embed("how to boil water quickly in ancient times");
        let other = e.embed("derive the gradient of the softmax function");
        assert!(cosine(&base, &para) > cosine(&base, &other) + 0.2);
    }

    #[test]
    fn batch_matches_single() {
        let e = NgramEmbedder::default();
        let batch = e.embed_batch(&["one", "two"]);
        assert_eq!(batch[0], e.embed("one"));
        assert_eq!(batch[1], e.embed("two"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        NgramEmbedder::new(0, 0);
    }
}
