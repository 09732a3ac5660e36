//! The original feature extractor and projection, kept verbatim as the test
//! oracle for the allocation-free versions in [`crate::features`] and
//! [`crate::embedder`]: one `String` per normalization pass, word and
//! trigram, and a projection adding `±w` one slot at a time. The tests
//! below require both `FeatureBag` entries and embedding bits to match it.

use pas_text::hash::{fx_combine, fx_hash_str};
use pas_text::{collapse_whitespace, strip_punctuation};

use crate::vector::normalize_in_place;

const NS_WORD: u64 = 0x57_4f_52_44; // "WORD"
const NS_CHAR: u64 = 0x43_48_41_52; // "CHAR"
const WORD_WEIGHT: f32 = 3.0;
const CHAR_WEIGHT: f32 = 1.0;

fn normalize_for_dedup(text: &str) -> String {
    collapse_whitespace(&strip_punctuation(&text.to_lowercase()))
}

fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn char_ngrams(text: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "n-gram size must be positive");
    let chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() <= n {
        return vec![chars.iter().collect()];
    }
    (0..=chars.len() - n).map(|i| chars[i..i + n].iter().collect()).collect()
}

/// The original `feature_bag`, returning its entries.
pub fn feature_bag(text: &str) -> Vec<(u64, f32)> {
    let canonical = normalize_for_dedup(text);
    let mut raw: Vec<(u64, f32)> = Vec::new();
    for w in words(&canonical) {
        raw.push((fx_combine(NS_WORD, fx_hash_str(&w)), WORD_WEIGHT));
    }
    for g in char_ngrams(&canonical, 3) {
        raw.push((fx_combine(NS_CHAR, fx_hash_str(&g)), CHAR_WEIGHT));
    }
    raw.sort_unstable_by_key(|&(h, _)| h);
    // Aggregate duplicate features.
    let mut entries: Vec<(u64, f32)> = Vec::with_capacity(raw.len());
    for (h, w) in raw {
        match entries.last_mut() {
            Some((lh, lw)) if *lh == h => *lw += w,
            _ => entries.push((h, w)),
        }
    }
    entries
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The original `NgramEmbedder::project` at output dimension `dim` and
/// projection `seed`.
pub fn project(dim: usize, seed: u64, entries: &[(u64, f32)]) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    for &(h, w) in entries {
        let mut state = h ^ seed;
        // Consume 64 sign bits at a time.
        let mut bits = 0u64;
        let mut remaining = 0u32;
        for slot in out.iter_mut() {
            if remaining == 0 {
                bits = splitmix64(&mut state);
                remaining = 64;
            }
            let sign = if bits & 1 == 1 { w } else { -w };
            *slot += sign;
            bits >>= 1;
            remaining -= 1;
        }
    }
    normalize_in_place(&mut out);
    out
}

mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::embedder::{Embedder, NgramEmbedder};
    use crate::features;

    const DIMS: [usize; 6] = [1, 17, 63, 64, 65, 128];
    const SEEDS: [u64; 3] = [0, 7, 0x5eed_cafe];

    /// Chars the Unicode case and class rules treat specially: sigmas,
    /// dotted/dotless i, combining marks, titlecase digraphs, expanding
    /// lowercases, non-ASCII whitespace and digits, zero-width joiners.
    const TRICKY: &[char] = &[
        'Σ', 'σ', 'ς', 'İ', 'ı', 'I', 'i', '\u{0307}', '\u{0301}', '\u{0345}', 'ǅ', 'ẞ', 'ß',
        '\u{212A}', '\u{2126}', 'ﬃ', 'Ⅻ', '٣', '𝐀', '\u{00A0}', '\u{2028}', '\u{3000}', '\u{200B}',
        '\u{200D}', '\u{FE0F}', '🙂', '👩', '雪', '界', 'Ж', 'é', '.', '\'', '-',
    ];

    fn arbitrary_char(x: u32) -> char {
        let payload = x / 4;
        match x % 4 {
            0 => char::from_u32(payload % 0x80).expect("ascii"),
            1 => TRICKY[payload as usize % TRICKY.len()],
            2 => char::from_u32(0x370 + payload % 0x1c0).expect("greek/cyrillic"),
            _ => char::from_u32(payload).unwrap_or('\u{FFFD}'),
        }
    }

    fn arbitrary_text() -> impl Strategy<Value = String> {
        prop::collection::vec(0u32..0x11_0000 * 4, 0..48)
            .prop_map(|xs| xs.into_iter().map(arbitrary_char).collect())
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn entry_bits(entries: &[(u64, f32)]) -> Vec<(u64, u32)> {
        entries.iter().map(|&(h, w)| (h, w.to_bits())).collect()
    }

    fn assert_matches_reference(text: &str) {
        let want = feature_bag(text);
        let got = features::feature_bag(text);
        assert_eq!(entry_bits(got.entries()), entry_bits(&want), "feature bag of {text:?}");
        for dim in DIMS {
            for seed in SEEDS {
                let e = NgramEmbedder::new(dim, seed);
                let want = bits(&project(dim, seed, &want));
                assert_eq!(bits(&e.embed(text)), want, "embed {text:?} dim {dim} seed {seed}");
                assert_eq!(bits(&e.embed_bag(&got)), want, "embed_bag {text:?} dim {dim}");
            }
        }
    }

    #[test]
    fn adversarial_texts_match_reference() {
        for text in [
            "",
            "a",
            "ab",
            "abc",
            "abcd",
            "é",
            "雪界",
            "ΟΔΟΣ ΣΑΣ",
            "ΣΑΣ.",
            "Σ",
            "aΣ b",
            "İstanbul",
            "İ",
            "机器学习是什么？请详细解释。",
            "e\u{0301}te\u{0301}",
            "a\u{0307}\u{0301}b",
            "🙂👩\u{200D}💻 🙂",
            "\u{00A0}\u{00A0}a\t\t\tb\n\n\nc\r\n\u{3000}",
            " \t\n ",
            "?!.,;:…—",
            "ǅungla ﬃ Ⅻ ٣ 𝐀",
            "How do I sort a list of integers in Rust?",
        ] {
            assert_matches_reference(text);
        }
    }

    #[test]
    fn projection_of_arbitrary_weights_matches_reference() {
        let entries: Vec<(u64, f32)> =
            (0..40u64).map(|i| (i.wrapping_mul(0x9e37_79b9), (i as f32 * 0.37).sin())).collect();
        for dim in DIMS.into_iter().chain([2, 8, 9, 200]) {
            for seed in SEEDS {
                let got = NgramEmbedder::new(dim, seed).project(&entries);
                assert_eq!(bits(&got), bits(&project(dim, seed, &entries)), "dim {dim}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn arbitrary_unicode_matches_reference(text in arbitrary_text()) {
            assert_matches_reference(&text);
        }

        #[test]
        fn ascii_prompts_match_reference(text in ".{0,160}") {
            assert_matches_reference(&text);
        }
    }
}
