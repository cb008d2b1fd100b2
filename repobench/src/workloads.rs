//! The four workloads, generated from a seed.
//!
//! Each workload is rendered to FASTA text; the program under test only
//! ever sees those bytes (parsed in the timed set-up), never the
//! generator's `Seq` values. The same seed always yields the same bytes.

use repro::align::fasta::format_fasta;
use repro::align::{Alphabet, FastaRecord};
use repro::seqgen::rng::Rng;
use repro::seqgen::titin::{titin_like_with, TitinParams};
use repro::seqgen::{random_seq, PlantedRepeats, RepeatSpec};
use repro::{Scoring, Seq};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["dna_island", "protein_batch"];

/// A seed kept out of every tuning run: later claims are checked on it
/// as well as on the seeds they were developed with.
pub const HELD_OUT_SEED: u64 = 20_031_115;

/// One generated workload: FASTA bytes plus how to analyse them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Alphabet the FASTA text is parsed with.
    pub alphabet: Alphabet,
    /// Top alignments searched per sequence.
    pub tops: usize,
    /// Checkpoint byte budget (`None` = incremental layer off, the CLI
    /// default).
    pub checkpoint_budget: Option<usize>,
    /// The generated input, one record per analysis.
    pub fasta: String,
}

impl Workload {
    /// The CLI's default scoring for the workload's alphabet.
    pub fn scoring(&self) -> Scoring {
        match self.alphabet {
            Alphabet::Dna => Scoring::dna_example(),
            Alphabet::Protein => Scoring::protein_default(),
        }
    }
}

/// Generate workload `name` from `seed`, or `None` for an unknown name.
///
/// How much work seeded pruning leaves depends on chance alignments, so
/// one sequence's work swings with its seed. Each workload therefore
/// averages over several sequences, which keeps the work per seed within
/// a few percent of its median.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    let (name, alphabet, tops, checkpoint_budget, seqs): (_, _, _, _, Vec<Seq>) = match name {
        "dna_island" => (
            NAMES[0],
            Alphabet::Dna,
            20,
            Some(repro::align::DEFAULT_CHECKPOINT_BUDGET),
            (0..3)
                .map(|_| {
                    PlantedRepeats::generate(&RepeatSpec::dna_sparse_island(25, 2), rng.next_u64())
                        .seq
                })
                .collect(),
        ),
        "protein_batch" => (
            NAMES[1],
            Alphabet::Protein,
            10,
            None,
            (0..BATCH).map(|i| batch_protein(i, &mut rng)).collect(),
        ),
        _ => return None,
    };
    let records: Vec<FastaRecord> = seqs
        .into_iter()
        .enumerate()
        .map(|(i, seq)| FastaRecord {
            id: format!("{name}-{i} seed={seed}"),
            seq,
        })
        .collect();
    Some(Workload {
        name,
        alphabet,
        tops,
        checkpoint_budget,
        fasta: format_fasta(&records, 60),
    })
}

/// Titin-like domains at 75 % identity to their ancestor. At the
/// generator's default divergence, seeded pruning removes almost every
/// split on some seeds and barely any on others. Closer copies keep the
/// work per seed within a narrow band, with repeats still everywhere.
fn dense_titin() -> TitinParams {
    TitinParams {
        substitution_rate: 0.25,
        ..TitinParams::default()
    }
}

/// Proteins in `protein_batch`.
const BATCH: usize = 64;

/// Protein `i` of the batch: 100–400 residues, titin-like, interspersed
/// repeats or repeat-free in turn. The mix and the length strata are the
/// same for every seed; the seed draws the residues and the jitter.
fn batch_protein(i: usize, rng: &mut Rng) -> Seq {
    let len = 100 + (i * 300) / BATCH + rng.below(300 / BATCH);
    let seed = rng.next_u64();
    match i % 3 {
        0 => titin_like_with(len, seed, &dense_titin()),
        1 => {
            let planted =
                PlantedRepeats::generate(&RepeatSpec::protein_interspersed(len / 6, 3), seed);
            planted.seq.prefix(len.min(planted.seq.len()))
        }
        _ => random_seq(Alphabet::Protein, len, &mut Rng::new(seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        for name in NAMES {
            let a = generate(name, 7).unwrap();
            assert_eq!(a, generate(name, 7).unwrap(), "{name} differs on one seed");
            assert_ne!(
                a.fasta,
                generate(name, 8).unwrap().fasta,
                "{name} ignores its seed"
            );
        }
        assert!(generate("nope", 1).is_none());
    }

    #[test]
    fn workloads_have_their_documented_shape() {
        let lens = |name| {
            let w = generate(name, 3).unwrap();
            repro::align::parse_fasta(&w.fasta, w.alphabet)
                .unwrap()
                .iter()
                .map(|r| r.seq.len())
                .collect::<Vec<_>>()
        };
        let dna = lens("dna_island");
        assert!(
            dna.len() == 3 && dna.iter().all(|n| (420..480).contains(n)),
            "{dna:?}"
        );
        let batch = lens("protein_batch");
        assert_eq!(batch.len(), BATCH);
        assert!(batch.iter().all(|n| (60..=400).contains(n)), "{batch:?}");
    }
}
