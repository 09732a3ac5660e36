//! Builds the quick-scale PAS model (corpus 350, labeled 500 — the size
//! the repository's benches use), calling the four `PasSystem` stages
//! directly so each one is timed on its own.

use std::sync::Arc;
use std::time::Instant;

use pas_core::{Pas, SystemConfig};
use pas_data::{Corpus, CorpusConfig, Generator, SelectionConfig, SelectionPipeline};

/// Wall time of each build stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub corpus_s: f64,
    pub select_s: f64,
    pub generate_s: f64,
    pub sft_s: f64,
    /// Share of generated pairs the critic accepted on the first draw.
    pub gen_first_pass_ratio: f64,
}

/// The quick-scale system configuration.
pub fn system_config() -> SystemConfig {
    SystemConfig {
        corpus: CorpusConfig { size: 350, seed: 11, ..CorpusConfig::default() },
        selection: SelectionConfig { labeled_size: 500, ..SelectionConfig::default() },
        ..SystemConfig::default()
    }
}

/// Runs corpus → selection → Algorithm 1 → SFT, exactly as
/// `PasSystem::try_build` chains them, timing each stage.
pub fn build_pas() -> (Pas, StageTimes) {
    let config = system_config();
    let t = Instant::now();
    let corpus = Corpus::generate(&config.corpus);
    let corpus_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (selected, _) = SelectionPipeline::new(config.selection.clone()).run(&corpus.records);
    let select_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (dataset, report, _) = Generator::new(config.generation.clone(), Arc::new(corpus.world))
        .try_run_journaled(&selected, None)
        .expect("a clean quick-scale generation succeeds");
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (pas, _) = Pas::sft_with_journal(&config.pas, &dataset, None)
        .expect("SFT without a journal does no I/O");
    let sft_s = t.elapsed().as_secs_f64();

    let first_pass = report.generated.saturating_sub(report.rejected_first_draw);
    let times = StageTimes {
        corpus_s,
        select_s,
        generate_s,
        sft_s,
        gen_first_pass_ratio: first_pass as f64 / report.generated.max(1) as f64,
    };
    (pas, times)
}
