//! Hashed lexical feature extraction.
//!
//! A text becomes a sparse bag of 64-bit feature hashes with counts: one
//! feature per word and one per character trigram of the normalized text.
//! Words carry more weight than character grams (they are more
//! discriminative); character grams provide robustness to small edits and
//! typos, which is what makes near-duplicates land close together.

use std::cell::RefCell;

use pas_text::hash::{fx_combine, fx_hash_bytes, fx_hash_str};
use pas_text::{for_each_word, normalize_for_dedup_into};

/// Namespace tags keep word features and char-gram features from colliding.
const NS_WORD: u64 = 0x57_4f_52_44; // "WORD"
const NS_CHAR: u64 = 0x43_48_41_52; // "CHAR"

/// Relative weight of a word feature vs. a character-trigram feature.
pub const WORD_WEIGHT: f32 = 3.0;
/// Relative weight of a character-trigram feature.
pub const CHAR_WEIGHT: f32 = 1.0;

/// A sparse feature bag: `(feature_hash, weight)` pairs, hash-sorted and
/// aggregated.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBag {
    entries: Vec<(u64, f32)>,
}

impl FeatureBag {
    /// The `(hash, weight)` entries in ascending hash order.
    pub fn entries(&self) -> &[(u64, f32)] {
        &self.entries
    }

    /// Number of distinct features.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the text produced no features (empty/punctuation-only).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Extracts the hashed feature bag of `text`.
pub fn feature_bag(text: &str) -> FeatureBag {
    with_feature_entries(text, |entries| FeatureBag { entries: entries.to_vec() })
}

/// Per-thread buffers reused by every [`with_feature_entries`] call.
#[derive(Default)]
struct Scratch {
    canonical: String,
    /// Byte offset of every char of `canonical`, plus its length.
    offsets: Vec<usize>,
    raw: Vec<(u64, f32)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Builds the entries of `feature_bag(text)` in per-thread scratch buffers
/// and hands them to `f`, so a caller that only projects the bag never
/// allocates one.
///
/// Features, in push order: one per word of the canonical text, then one
/// per char trigram of it (the whole text when it has 1–3 chars). A
/// trigram is hashed as the byte slice between char-boundary offsets, which
/// is the same UTF-8 its collected `String` would hold.
pub(crate) fn with_feature_entries<R>(text: &str, f: impl FnOnce(&[(u64, f32)]) -> R) -> R {
    SCRATCH.with(|scratch| {
        let Scratch { canonical, offsets, raw } = &mut *scratch.borrow_mut();
        normalize_for_dedup_into(text, canonical);
        raw.clear();
        for_each_word(canonical, |w| raw.push((fx_combine(NS_WORD, fx_hash_str(w)), WORD_WEIGHT)));
        offsets.clear();
        offsets.extend(canonical.char_indices().map(|(i, _)| i));
        offsets.push(canonical.len());
        let chars = offsets.len() - 1;
        if (1..=3).contains(&chars) {
            raw.push((fx_combine(NS_CHAR, fx_hash_str(canonical)), CHAR_WEIGHT));
        } else {
            let bytes = canonical.as_bytes();
            for w in offsets.windows(4) {
                raw.push((fx_combine(NS_CHAR, fx_hash_bytes(&bytes[w[0]..w[3]])), CHAR_WEIGHT));
            }
        }
        raw.sort_unstable_by_key(|&(h, _)| h);
        // Aggregate duplicate features in place, summing in sorted order.
        let mut kept = 0;
        for i in 0..raw.len() {
            let (h, w) = raw[i];
            if kept > 0 && raw[kept - 1].0 == h {
                raw[kept - 1].1 += w;
            } else {
                raw[kept] = (h, w);
                kept += 1;
            }
        }
        raw.truncate(kept);
        f(raw)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_identical_bags() {
        assert_eq!(feature_bag("Sort the list"), feature_bag("sort the list!"));
    }

    #[test]
    fn empty_text_empty_bag() {
        assert!(feature_bag("").is_empty());
        assert!(feature_bag("?!.,").is_empty());
    }

    #[test]
    fn repeated_words_aggregate_weight() {
        let once = feature_bag("rust");
        let thrice = feature_bag("rust rust rust");
        let w1: f32 = once.entries().iter().map(|e| e.1).sum();
        let w3: f32 = thrice.entries().iter().map(|e| e.1).sum();
        assert!(w3 > w1 * 2.0);
    }

    #[test]
    fn entries_are_hash_sorted_and_unique() {
        let bag = feature_bag("the quick brown fox jumps over the lazy dog");
        let hashes: Vec<u64> = bag.entries().iter().map(|e| e.0).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(hashes, sorted);
    }

    #[test]
    fn small_edit_shares_most_features() {
        let a = feature_bag("explain the merge sort algorithm step by step");
        let b = feature_bag("explain the merge sort algorithm step by steps");
        let set_a: std::collections::HashSet<u64> = a.entries().iter().map(|e| e.0).collect();
        let shared = b.entries().iter().filter(|e| set_a.contains(&e.0)).count();
        assert!(shared as f64 / b.len() as f64 > 0.8);
    }
}
