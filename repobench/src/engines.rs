//! The end-to-end run: every engine through `Repro::try_run`, checked
//! against the sequential engine.

use crate::host;
use crate::workloads::Workload;
use repro::align::parse_fasta;
use repro::core::{FinderConfig, RepeatUnit, TopAlignmentFinder};
use repro::{Engine, Repro, SeedConfig, Seq, TopAlignment};
use std::time::Instant;

/// The five engines, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `Engine::Sequential`.
    Seq,
    /// Auto-dispatched SIMD lanes.
    Simd,
    /// SIMD × SMP on every core.
    SimdSmp,
    /// SMP threads on every core.
    Smp,
    /// Master/worker over the in-process transport, `nproc − 1` workers.
    Cluster,
}

/// Every engine, in report order.
pub const ENGINES: [EngineKind; 5] = [
    EngineKind::Seq,
    EngineKind::Simd,
    EngineKind::SimdSmp,
    EngineKind::Smp,
    EngineKind::Cluster,
];

impl EngineKind {
    /// The facade engine, using no more threads than `nproc`.
    pub fn engine(self, nproc: usize) -> Engine {
        match self {
            EngineKind::Seq => Engine::Sequential,
            EngineKind::Simd => Engine::SimdDispatch {
                width: None,
                path: None,
            },
            EngineKind::SimdSmp => Engine::SimdThreads {
                threads: nproc,
                width: None,
                path: None,
            },
            EngineKind::Smp => Engine::Threads(nproc),
            EngineKind::Cluster => Engine::Cluster {
                workers: cluster_workers(nproc),
            },
        }
    }
}

/// Cluster workers: one core is left to the master rank.
pub fn cluster_workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// The CLI's default seed configuration (pruning on, k = 6).
pub fn seed_config() -> Option<SeedConfig> {
    Some(SeedConfig::default())
}

/// The finder configuration the sequential engine runs with.
pub fn finder_config(w: &Workload) -> FinderConfig {
    FinderConfig {
        checkpoint_budget: w.checkpoint_budget,
        seed: seed_config(),
        ..FinderConfig::new(w.tops)
    }
}

/// The facade configured as the CLI would be for this workload.
pub fn repro_for(w: &Workload, kind: EngineKind, nproc: usize) -> Repro {
    Repro::new(w.scoring())
        .top_alignments(w.tops)
        .engine(kind.engine(nproc))
        .checkpoint_budget(w.checkpoint_budget)
        .seed_config(seed_config())
}

/// Parse the workload's FASTA bytes into sequences.
pub fn parse(w: &Workload) -> Result<Vec<Seq>, String> {
    parse_fasta(&w.fasta, w.alphabet)
        .map(|recs| recs.into_iter().map(|r| r.seq).collect())
        .map_err(|e| format!("{}: generated FASTA does not parse: {e}", w.name))
}

/// Set-up time: FASTA bytes to one ready sequential search per record
/// (parse, bottom-row store, override triangle, seed bounds, task
/// queue). Returns seconds.
pub fn setup_secs(w: &Workload) -> f64 {
    let scoring = w.scoring();
    let t0 = Instant::now();
    let seqs = parse(w).expect("the workload parsed before");
    let finders: Vec<TopAlignmentFinder<'_>> = seqs
        .iter()
        .map(|s| TopAlignmentFinder::new(s, &scoring, finder_config(w)))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    drop(finders);
    secs
}

/// What every engine must agree on for one sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Top alignments in acceptance order (split, score, pairs).
    pub tops: Vec<TopAlignment>,
    /// Delineated repeat units.
    pub units: Vec<RepeatUnit>,
}

/// Analyses attempted and failed (an `Err`, or an answer differing from
/// the sequential reference).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Analyses run.
    pub attempted: u64,
    /// Analyses that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one analysis; `ok` is false for an `Err` or a mismatch.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Run one engine over every sequence (closed loop, one analysis at a
/// time). Returns the wall seconds of the `try_run` calls and the
/// answers (`None` for an `Err`).
pub fn run_engine(repro: &Repro, seqs: &[Seq]) -> (f64, Vec<Option<Answer>>) {
    let t0 = Instant::now();
    let analyses: Vec<_> = seqs.iter().map(|s| repro.try_run(s)).collect();
    let secs = t0.elapsed().as_secs_f64();
    let answers = analyses
        .into_iter()
        .map(|a| {
            a.ok().map(|a| Answer {
                tops: a.tops.alignments,
                units: a.report.units,
            })
        })
        .collect();
    (secs, answers)
}

/// End-to-end medians of one untraced run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Wall seconds of every timed round per engine, in [`ENGINES`]
    /// order.
    pub tops_s: [Vec<f64>; 5],
    /// Every timed set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Highest peak RSS over every engine run, MB.
    pub peak_rss_mb: f64,
    /// Correctness tally over every analysis (warm-up included).
    pub tally: Tally,
}

/// Rounds made even when one round outlasts the time budget.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed before the rounds start (one more is timed per round).
const SETUP_WARM_REPS: usize = 5;

/// Warm up, then run timed rounds of every engine until `seconds` have
/// passed. Each round runs every engine once, rotating the order so no
/// engine always follows the same one.
pub fn measure(
    w: &Workload,
    seqs: &[Seq],
    reference: &[Answer],
    nproc: usize,
    seconds: f64,
) -> Result<EndToEnd, String> {
    let repros: Vec<Repro> = ENGINES.iter().map(|&k| repro_for(w, k, nproc)).collect();
    let mut tally = Tally::default();
    let check = |tally: &mut Tally, answers: &[Option<Answer>]| {
        for (got, want) in answers.iter().zip(reference) {
            tally.record(got.as_ref() == Some(want));
        }
    };
    // Warm-up: dispatch probe, thread spawn paths, page faults.
    for repro in &repros {
        let (_, answers) = run_engine(repro, seqs);
        check(&mut tally, &answers);
    }
    let mut setups: Vec<f64> = (0..SETUP_WARM_REPS).map(|_| setup_secs(w)).collect();
    let mut times: [Vec<f64>; 5] = Default::default();
    let mut peak_rss_mb = 0.0f64;
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        for i in 0..ENGINES.len() {
            let e = (i + rounds) % ENGINES.len();
            host::reset_peak_rss();
            let (secs, answers) = run_engine(&repros[e], seqs);
            peak_rss_mb = peak_rss_mb.max(host::peak_rss_mb()?);
            times[e].push(secs);
            check(&mut tally, &answers);
        }
        setups.push(setup_secs(w));
        rounds += 1;
    }
    Ok(EndToEnd {
        tops_s: times,
        setup_s: setups,
        peak_rss_mb,
        tally,
    })
}

/// The sequential reference answers (also the first warm-up).
pub fn reference(w: &Workload, seqs: &[Seq], nproc: usize) -> Result<Vec<Answer>, String> {
    let (_, answers) = run_engine(&repro_for(w, EngineKind::Seq, nproc), seqs);
    answers
        .into_iter()
        .enumerate()
        .map(|(i, a)| a.ok_or(format!("sequential reference failed on record {i}")))
        .collect()
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of a non-empty sample, interpolating linearly
/// between order statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
