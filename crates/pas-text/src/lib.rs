//! Text utilities shared by every PAS crate.
//!
//! This crate deliberately has no heavyweight dependencies: it provides the
//! deterministic, allocation-conscious primitives the rest of the workspace
//! builds on — normalization, n-gram extraction, keyword scoring, string
//! similarity, a seedable template realizer, and a fast non-cryptographic
//! hash used for feature hashing throughout the system.

pub mod hash;
pub mod keywords;
pub mod lang;
pub mod ngram;
pub mod normalize;
pub mod similarity;
pub mod template;

pub use hash::{fx_hash_bytes, fx_hash_str, FxHasher};
pub use keywords::{content_words, keyword_overlap, top_keywords};
pub use lang::{detect_language, Language};
pub use ngram::{word_ngrams, word_shingle_hashes};
pub use normalize::{
    collapse_whitespace, normalize_for_dedup, normalize_for_dedup_into, strip_punctuation,
};
pub use similarity::{dice_coefficient, jaccard_words, levenshtein, normalized_levenshtein};
pub use template::{Template, TemplateError};

/// Splits text into lowercase word tokens (alphanumeric runs).
///
/// This is the single tokenization used by the lexical components so that
/// keyword extraction, similarity and feature hashing all agree on word
/// boundaries.
pub fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_word(text, |w| out.push(w.to_owned()));
    out
}

/// Calls `f` with each word [`words`] would return, in order, without
/// allocating per word: a word whose chars already lowercase to themselves
/// is passed as a slice of `text`, and only a word that needs case folding
/// is lowercased (char by char, as in [`words`]) into one reused buffer.
pub fn for_each_word(text: &str, mut f: impl FnMut(&str)) {
    let mut folded = String::new();
    let mut emit = |word: &str| {
        if word.chars().all(lowercases_to_itself) {
            f(word);
        } else {
            folded.clear();
            folded.extend(word.chars().flat_map(char::to_lowercase));
            f(&folded);
        }
    };
    let mut start = None;
    for (i, ch) in text.char_indices() {
        match (ch.is_alphanumeric(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                emit(&text[s..i]);
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        emit(&text[s..]);
    }
}

/// True when `char::to_lowercase(c)` yields exactly `c`.
#[inline]
fn lowercases_to_itself(c: char) -> bool {
    if c.is_ascii() {
        return !c.is_ascii_uppercase();
    }
    let mut lower = c.to_lowercase();
    lower.next() == Some(c) && lower.next().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_splits_on_non_alphanumeric() {
        assert_eq!(words("Hello, world!"), vec!["hello", "world"]);
    }

    #[test]
    fn words_keeps_digits() {
        assert_eq!(words("top-10 results"), vec!["top", "10", "results"]);
    }

    #[test]
    fn words_empty_input() {
        assert!(words("").is_empty());
        assert!(words("  ,.! ").is_empty());
    }

    #[test]
    fn words_handles_unicode() {
        assert_eq!(words("Grüße an alle"), vec!["grüße", "an", "alle"]);
    }

    #[test]
    fn for_each_word_matches_words() {
        for text in ["", "Hello, World!", "ΟΔΟΣ ΣΑΣ", "İstanbul x", "a1 B2\tc3", "雪 界🙂é"]
        {
            let mut got = Vec::new();
            for_each_word(text, |w| got.push(w.to_owned()));
            assert_eq!(got, words(text), "{text:?}");
        }
        // Per-char folding, not str::to_lowercase: no final-sigma rule here.
        assert_eq!(words("ΟΔΟΣ"), vec!["οδοσ"]);
    }
}
