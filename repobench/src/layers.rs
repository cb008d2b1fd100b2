//! The traced run: per-layer metrics from the benchmark's own spans
//! around calls into each crate's public functions, plus the counts the
//! engines already return (`Stats`, `SimdFinderResult`,
//! `ParallelResult`/`ParallelSimdResult`, the cluster's recorder).
//!
//! Each round makes three passes over the workload:
//!
//! 1. **untraced** — the five engines through their direct entry points;
//! 2. **traced** — the same five calls inside spans, the sequential one
//!    driven step by step through `TopAlignmentFinder::step` with one
//!    span per step; `trace.overhead_frac` compares its wall time with
//!    the untraced pass;
//! 3. **layers** — isolated calls into single layers: the seed-bound
//!    build, a first-pass replay through `sw_last_row` and through the
//!    dispatched SIMD group kernel, `sw_align` on every accepted split,
//!    `delineate` and `unit_consensus`.

use crate::engines::{cluster_workers, finder_config, median, seed_config, Answer, Tally};
use crate::host;
use crate::trace::Tracer;
use crate::workloads::Workload;
use repro::align::{sw_align, sw_last_row, NoMask, QueryProfile};
use repro::cluster::find_top_alignments_cluster_seeded;
use repro::core::{
    delineate, unit_consensus, OverrideTriangle, SplitBounds, SplitMask, Stats, Step,
    TopAlignmentFinder,
};
use repro::obs::{Counter, FlightRecorder, Metric, NoopRecorder};
use repro::parallel::{
    find_top_alignments_parallel_seeded, find_top_alignments_parallel_simd_seeded,
};
use repro::simd::dispatch::sweep_group_profile_i16;
use repro::simd::find_top_alignments_simd_seeded;
use repro::{Scoring, SeedConfig, Seq, SimdSel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// First-pass replays sample whole SIMD groups so that at most this
/// many DP cells are replayed per sequence (every group when the
/// sequence is small enough).
const REPLAY_CELL_CAP: u64 = 150_000_000;

/// The cluster's wait budget, as the facade sets it.
const CLUSTER_DEADLINE: Duration = Duration::from_secs(600);

/// What a finder step did, as the per-layer metrics count it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// A split's first `Realigned` step.
    FirstPass,
    /// Any later `Realigned` step of the split.
    Realign,
    /// `Accepted`: traceback, triangle update, bound recompute.
    Accept,
    /// `Pruned`: a never-aligned split requeued at its tightened bound.
    Prune,
}

impl StepClass {
    /// Span name.
    pub fn span(self) -> &'static str {
        match self {
            StepClass::FirstPass => "core.first_pass",
            StepClass::Realign => "core.realign",
            StepClass::Accept => "core.accept",
            StepClass::Prune => "core.prune",
        }
    }
}

/// Step counts and seconds, indexed by [`StepClass`] as `usize`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTally {
    /// Steps per class.
    pub n: [u64; 4],
    /// Seconds per class.
    pub secs: [f64; 4],
}

/// Drive `finder` to completion one step at a time, one span per step,
/// classifying each. `m` is the sequence length.
pub fn drive_steps(
    finder: &mut TopAlignmentFinder<'_>,
    m: usize,
    tracer: &mut Tracer,
) -> StepTally {
    let mut seen = vec![false; m];
    let mut tally = StepTally::default();
    loop {
        let id = tracer.enter("core.step");
        let step = finder.step();
        let class = match step {
            Step::Realigned { r, .. } if !seen[r] => {
                seen[r] = true;
                StepClass::FirstPass
            }
            Step::Realigned { .. } => StepClass::Realign,
            Step::Accepted { .. } => StepClass::Accept,
            Step::Pruned { .. } => StepClass::Prune,
            Step::Done => {
                tracer.exit_as(id, "core.done");
                return tally;
            }
        };
        tally.n[class as usize] += 1;
        tally.secs[class as usize] += tracer.exit_as(id, class.span());
    }
}

/// Per-layer medians of a traced run.
#[derive(Debug, Clone)]
pub struct Layered {
    /// Median of each metric over the rounds (counts repeat exactly).
    pub metrics: Metrics,
    /// Rounds made.
    pub rounds: usize,
    /// Correctness tally over every traced analysis.
    pub tally: Tally,
}

/// Run traced rounds until `seconds` have passed (at least one).
pub fn measure(
    w: &Workload,
    seqs: &[Seq],
    reference: &[Answer],
    nproc: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Layered, String> {
    let sel = repro::select(None, None).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let mut per_round: Vec<Metrics> = Vec::new();
    let t0 = Instant::now();
    while per_round.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        tracer.set_round(per_round.len() as u32);
        let round = Round {
            w,
            scoring: w.scoring(),
            seqs,
            reference,
            nproc,
            sel,
        };
        per_round.push(round.run(per_round.len() % 2 == 1, tracer, &mut tally)?);
    }
    let mut metrics = Metrics::new();
    for &name in per_round[0].keys() {
        let xs: Vec<f64> = per_round.iter().map(|m| m[name]).collect();
        metrics.insert(name, median(&xs));
    }
    Ok(Layered {
        metrics,
        rounds: per_round.len(),
        tally,
    })
}

/// One round's fixed inputs.
struct Round<'a> {
    w: &'a Workload,
    scoring: Scoring,
    seqs: &'a [Seq],
    reference: &'a [Answer],
    nproc: usize,
    sel: SimdSel,
}

/// Counts the traced engine pass collects over the workload.
#[derive(Default)]
struct EngineCounts {
    seq_stats: Vec<Stats>,
    seq_tops: Vec<Vec<repro::TopAlignment>>,
    steps: StepTally,
    setup_s: f64,
    seq_s: f64,
    simd_cells: u64,
    simd: repro::simd::SimdStats,
    lanes_compacted: u64,
    lanes_skipped: u64,
    smp: [ParallelCounts; 2],
    cluster_cells: u64,
    cluster_s: f64,
    peak_rss_mb: [f64; 5],
}

/// SMP engine tallies (index 0 = threads, 1 = SIMD × SMP).
#[derive(Default, Clone, Copy)]
struct ParallelCounts {
    idle_s: f64,
    claims: u64,
    superseded: u64,
    cells: u64,
}

impl Round<'_> {
    fn run(
        &self,
        traced_first: bool,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Metrics, String> {
        let mut rec = FlightRecorder::new();
        let (untraced_s, traced_s, counts) = if traced_first {
            let (counts, traced_s) = self.traced_pass(tracer, tally, &mut rec)?;
            (self.untraced_pass(), traced_s, counts)
        } else {
            let untraced_s = self.untraced_pass();
            let (counts, traced_s) = self.traced_pass(tracer, tally, &mut rec)?;
            (untraced_s, traced_s, counts)
        };
        let mut m = self.layer_pass(&counts, tracer, tally);
        self.engine_metrics(&counts, &rec, &mut m);
        m.insert("trace.overhead_frac", traced_s / untraced_s - 1.0);
        Ok(m)
    }

    /// The five engines through their direct entry points, no spans.
    fn untraced_pass(&self) -> f64 {
        let (w, sc, budget) = (self.w, &self.scoring, self.w.checkpoint_budget);
        let t0 = Instant::now();
        for s in self.seqs {
            black_box(TopAlignmentFinder::new(s, sc, finder_config(w)).run());
            black_box(find_top_alignments_simd_seeded(
                s,
                sc,
                w.tops,
                self.sel,
                budget,
                seed_config(),
                &mut NoopRecorder,
            ));
            black_box(find_top_alignments_parallel_seeded(
                s,
                sc,
                w.tops,
                self.nproc,
                budget,
                seed_config(),
            ));
            black_box(find_top_alignments_parallel_simd_seeded(
                s,
                sc,
                w.tops,
                self.nproc,
                self.sel,
                budget,
                seed_config(),
            ));
            // A failure is tallied by the traced pass; here only time counts.
            let _ = black_box(find_top_alignments_cluster_seeded(
                s,
                sc,
                w.tops,
                cluster_workers(self.nproc),
                CLUSTER_DEADLINE,
                budget,
                seed_config(),
                &mut NoopRecorder,
            ));
        }
        t0.elapsed().as_secs_f64()
    }

    /// The same five calls inside spans; the sequential engine stepped.
    fn traced_pass(
        &self,
        tracer: &mut Tracer,
        tally: &mut Tally,
        rec: &mut FlightRecorder,
    ) -> Result<(EngineCounts, f64), String> {
        let (w, sc, budget) = (self.w, &self.scoring, self.w.checkpoint_budget);
        let mut c = EngineCounts::default();
        // Fold engine `i`'s peak RSS in and reset it for the next engine.
        let rss = |i: usize, c: &mut EngineCounts| -> Result<(), String> {
            c.peak_rss_mb[i] = c.peak_rss_mb[i].max(host::peak_rss_mb()?);
            host::reset_peak_rss();
            Ok(())
        };
        let root = tracer.enter("engines");
        for (s, want) in self.seqs.iter().zip(self.reference) {
            host::reset_peak_rss();

            let seq_span = tracer.enter("engine.seq");
            let (mut finder, setup_s) = tracer.span("core.setup", |_| {
                TopAlignmentFinder::new(s, sc, finder_config(w))
            });
            let steps = drive_steps(&mut finder, s.len(), tracer);
            c.seq_s += tracer.exit(seq_span);
            rss(0, &mut c)?;
            c.setup_s += setup_s;
            for i in 0..4 {
                c.steps.n[i] += steps.n[i];
                c.steps.secs[i] += steps.secs[i];
            }
            c.seq_stats.push(finder.stats().clone());
            c.seq_tops.push(finder.alignments().to_vec());

            let (simd, _) = tracer.span("engine.simd", |_| {
                find_top_alignments_simd_seeded(
                    s,
                    sc,
                    w.tops,
                    self.sel,
                    budget,
                    seed_config(),
                    &mut NoopRecorder,
                )
            });
            rss(1, &mut c)?;
            tally.record(simd.result.alignments == want.tops);
            c.simd_cells += simd.result.stats.cells;
            c.lanes_compacted += simd.result.stats.lanes_compacted;
            c.lanes_skipped += simd.result.stats.lanes_skipped;
            c.simd.group_sweeps += simd.simd.group_sweeps;
            c.simd.promoted_sweeps += simd.simd.promoted_sweeps;

            let (out, _) = tracer.span("engine.simd_smp", |_| {
                find_top_alignments_parallel_simd_seeded(
                    s,
                    sc,
                    w.tops,
                    self.nproc,
                    self.sel,
                    budget,
                    seed_config(),
                )
            });
            rss(2, &mut c)?;
            tally.record(out.result.alignments == want.tops);
            c.smp[1].idle_s += out.idle_secs;
            c.smp[1].claims += out.task_claims;
            c.smp[1].superseded += out.superseded_sweeps;
            c.smp[1].cells += out.result.stats.cells;

            let (out, _) = tracer.span("engine.smp", |_| {
                find_top_alignments_parallel_seeded(
                    s,
                    sc,
                    w.tops,
                    self.nproc,
                    budget,
                    seed_config(),
                )
            });
            rss(3, &mut c)?;
            tally.record(out.result.alignments == want.tops);
            c.smp[0].idle_s += out.idle_secs;
            c.smp[0].claims += out.task_claims;
            c.smp[0].superseded += out.superseded_alignments;
            c.smp[0].cells += out.result.stats.cells;

            let (out, secs) = tracer.span("engine.cluster", |_| {
                find_top_alignments_cluster_seeded(
                    s,
                    sc,
                    w.tops,
                    cluster_workers(self.nproc),
                    CLUSTER_DEADLINE,
                    budget,
                    seed_config(),
                    rec,
                )
            });
            rss(4, &mut c)?;
            c.cluster_s += secs;
            match out {
                Ok(out) => {
                    tally.record(out.result.alignments == want.tops);
                    c.cluster_cells += out.result.stats.cells;
                }
                Err(_) => tally.record(false),
            }
        }
        let traced_s = tracer.exit(root);
        Ok((c, traced_s))
    }

    /// Isolated single-layer calls.
    fn layer_pass(&self, c: &EngineCounts, tracer: &mut Tracer, tally: &mut Tally) -> Metrics {
        let sc = &self.scoring;
        let lanes = self.sel.width.lanes();
        let mut m = Metrics::new();
        let add = |m: &mut Metrics, k: &'static str, v: f64| *m.entry(k).or_insert(0.0) += v;
        // Replayed cells and seconds: scalar, then SIMD (plus lane slots).
        let (mut scalar_cells, mut scalar_s) = (0u64, 0.0);
        let (mut simd_cells, mut simd_slots, mut simd_s) = (0u64, 0u64, 0.0);
        let root = tracer.enter("layers");
        for ((s, want), tops) in self.seqs.iter().zip(self.reference).zip(&c.seq_tops) {
            let len = s.len();
            let (_, secs) = tracer.span("core.seed_build", |_| {
                SplitBounds::build(s.codes(), sc, SeedConfig::default())
            });
            add(&mut m, "core.seed_build_s", secs);

            let (report, secs) = tracer.span("core.delineate", |_| delineate(s, tops));
            add(&mut m, "core.delineate_s", secs);
            let (_, secs) = tracer.span("core.consensus", |_| unit_consensus(s, &report.units, sc));
            add(&mut m, "core.consensus_s", secs);
            // The stepped sequential run is an analysis too: check it.
            tally.record(*tops == want.tops && report.units == want.units);

            // First-pass replay of the same sampled splits, scalar and SIMD.
            let groups = replay_groups(len, lanes);
            let (cells, secs) = tracer.span("align.first_pass_replay", |_| {
                let mut cells = 0;
                for &(r0, n) in &groups {
                    for r in r0..r0 + n {
                        let (prefix, suffix) = s.split(r);
                        cells += sw_last_row(prefix, suffix, sc, NoMask).cells;
                    }
                }
                cells
            });
            scalar_cells += cells;
            scalar_s += secs;
            let profile =
                QueryProfile::new_narrow(sc, s.codes()).expect("default scorings fit i16");
            let ((cells, slots), secs) = tracer.span("simd.first_pass_replay", |_| {
                let (mut cells, mut slots) = (0, 0);
                for &(r0, n) in &groups {
                    let g = sweep_group_profile_i16(self.sel, s.codes(), sc, &profile, r0, n, None);
                    cells += g.cells;
                    slots += g.vector_cells * lanes as u64;
                }
                (cells, slots)
            });
            simd_cells += cells;
            simd_slots += slots;
            simd_s += secs;
            add(&mut m, "align.cells", first_pass_cells(len) as f64);

            // Traceback of every accepted split under the triangle it saw.
            let mut triangle = OverrideTriangle::new(len);
            for top in tops {
                let (_, secs) = tracer.span("align.traceback", |_| {
                    let (prefix, suffix) = s.split(top.r);
                    sw_align(prefix, suffix, sc, SplitMask::new(&triangle, top.r))
                });
                add(&mut m, "align.traceback_s", secs);
                add(
                    &mut m,
                    "align.traceback_cells",
                    (top.r * (len - top.r)) as f64,
                );
                for &(p, q) in &top.pairs {
                    triangle.set(p, q);
                }
            }
            let mb = (len * len.saturating_sub(1) / 2 * 4) as f64 / 1e6;
            let store = m.entry("mem.bottom_store_mb_computed").or_insert(0.0);
            *store = store.max(mb);
        }
        tracer.exit(root);
        m.insert("align.cells_per_s", ratio(scalar_cells as f64, scalar_s));
        m.insert("simd.cells_per_s", ratio(simd_cells as f64, simd_s));
        m.insert(
            "simd.lane_util",
            ratio(simd_cells as f64, simd_slots as f64),
        );
        m.insert("simd.speedup_over_scalar", ratio(scalar_s, simd_s));
        m
    }

    /// Metrics from the traced engine pass's counts.
    fn engine_metrics(&self, c: &EngineCounts, rec: &FlightRecorder, m: &mut Metrics) {
        let sum = |f: &dyn Fn(&Stats) -> u64| c.seq_stats.iter().map(f).sum::<u64>() as f64;
        let splits: f64 = self
            .seqs
            .iter()
            .map(|s| s.len().saturating_sub(1) as f64)
            .sum();
        let rounds: f64 = self
            .seqs
            .iter()
            .zip(&c.seq_tops)
            .map(|(s, t)| (t.len() * s.len().saturating_sub(1)) as f64)
            .sum();
        let [first, realign, accept, prune] = c.steps.n.map(|n| n as f64);
        let seq_cells = sum(&|s| s.cells);
        m.insert("core.setup_s", c.setup_s);
        m.insert("core.first_pass_n", first);
        m.insert(
            "core.first_pass_s",
            c.steps.secs[StepClass::FirstPass as usize],
        );
        m.insert("core.realign_n", realign);
        m.insert("core.realign_s", c.steps.secs[StepClass::Realign as usize]);
        m.insert("core.accept_n", accept);
        m.insert("core.accept_s", c.steps.secs[StepClass::Accept as usize]);
        m.insert("core.prune_n", prune);
        m.insert("core.prune_s", c.steps.secs[StepClass::Prune as usize]);
        m.insert("core.never_aligned_frac", 1.0 - ratio(first, splits));
        m.insert("core.realign_frac", ratio(realign, rounds));
        let pops = sum(&|s| s.stale_pops + s.fresh_pops + s.pruned_pops);
        m.insert("core.stale_pop_frac", ratio(sum(&|s| s.stale_pops), pops));
        let (hits, misses) = (sum(&|s| s.checkpoint_hits), sum(&|s| s.checkpoint_misses));
        m.insert("align.ckpt_hit_frac", ratio(hits, hits + misses));
        let (swept, skipped) = (
            sum(&|s| s.realign_rows_swept),
            sum(&|s| s.realign_rows_skipped),
        );
        m.insert("align.rows_skipped_frac", ratio(skipped, swept + skipped));

        m.insert("simd.group_sweeps", c.simd.group_sweeps as f64);
        m.insert("simd.lanes_compacted", c.lanes_compacted as f64);
        m.insert("simd.lanes_skipped", c.lanes_skipped as f64);
        m.insert("simd.promoted_sweeps", c.simd.promoted_sweeps as f64);
        m.insert("simd.cells_over_seq", ratio(c.simd_cells as f64, seq_cells));

        let names = [
            [
                "parallel.idle_s.smp",
                "parallel.task_claims.smp",
                "parallel.superseded_frac.smp",
                "parallel.cells_over_seq.smp",
            ],
            [
                "parallel.idle_s.simd_smp",
                "parallel.task_claims.simd_smp",
                "parallel.superseded_frac.simd_smp",
                "parallel.cells_over_seq.simd_smp",
            ],
        ];
        for (p, [idle, claims, superseded, cells]) in c.smp.iter().zip(names) {
            m.insert(idle, p.idle_s);
            m.insert(claims, p.claims as f64);
            m.insert(superseded, ratio(p.superseded as f64, p.claims as f64));
            m.insert(cells, ratio(p.cells as f64, seq_cells));
        }

        m.insert(
            "cluster.cells_over_seq",
            ratio(c.cluster_cells as f64, seq_cells),
        );
        m.insert(
            "cluster.retries",
            rec.counter(Counter::ClusterRetries) as f64,
        );
        m.insert(
            "cluster.broadcasts",
            rec.counter(Counter::ClusterBroadcasts) as f64,
        );
        m.insert(
            "cluster.local_fallbacks",
            rec.counter(Counter::ClusterLocalFallbacks) as f64,
        );
        m.insert(
            "cluster.batch_size_p50",
            rec.hist(Metric::BatchSize).p50() as f64,
        );
        m.insert("cluster.overhead_over_seq_s", c.cluster_s - c.seq_s);

        let rss = [
            "mem.peak_rss_mb.seq",
            "mem.peak_rss_mb.simd",
            "mem.peak_rss_mb.simd_smp",
            "mem.peak_rss_mb.smp",
            "mem.peak_rss_mb.cluster",
        ];
        for (name, mb) in rss.into_iter().zip(c.peak_rss_mb) {
            m.insert(name, mb);
        }
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// DP cells of a full first pass: split `r` sweeps `r × (m − r)`.
pub fn first_pass_cells(m: usize) -> u64 {
    (1..m).map(|r| (r * (m - r)) as u64).sum()
}

/// SIMD groups `(r0, lanes)` replayed for a sequence of length `m`:
/// every group, or an evenly strided subset capped near
/// [`REPLAY_CELL_CAP`] cells.
pub fn replay_groups(m: usize, lanes: usize) -> Vec<(usize, usize)> {
    let splits = m.saturating_sub(1);
    let stride = first_pass_cells(m).div_ceil(REPLAY_CELL_CAP).max(1) as usize;
    (0..splits.div_ceil(lanes))
        .step_by(stride)
        .map(|g| (1 + g * lanes, lanes.min(splits - g * lanes)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines;
    use crate::workloads::Workload;
    use repro::align::fasta::format_fasta;
    use repro::align::{Alphabet, FastaRecord};

    fn small_workload() -> Workload {
        let records = vec![
            FastaRecord {
                id: "titin".into(),
                seq: repro::seqgen::titin_like(160, 5),
            },
            FastaRecord {
                id: "island".into(),
                seq: repro::seqgen::PlantedRepeats::generate(
                    &repro::seqgen::RepeatSpec::protein_sparse_island(12, 2),
                    5,
                )
                .seq,
            },
        ];
        Workload {
            name: "small",
            alphabet: Alphabet::Protein,
            tops: 4,
            checkpoint_budget: Some(repro::align::DEFAULT_CHECKPOINT_BUDGET),
            fasta: format_fasta(&records, 60),
        }
    }

    #[test]
    fn classified_passes_add_up_to_stats_alignments() {
        let w = small_workload();
        let scoring = w.scoring();
        for s in engines::parse(&w).unwrap() {
            let mut finder = TopAlignmentFinder::new(&s, &scoring, finder_config(&w));
            let steps = drive_steps(&mut finder, s.len(), &mut Tracer::default());
            let [first, realign, accept, prune] = steps.n;
            assert_eq!(first + realign, finder.stats().alignments);
            assert_eq!(accept, finder.alignments().len() as u64);
            assert_eq!(prune, finder.stats().pruned_pops);
            assert!(first < s.len() as u64);
        }
    }

    #[test]
    fn traced_self_times_fit_in_the_traced_wall_time() {
        let w = small_workload();
        let seqs = engines::parse(&w).unwrap();
        let reference = engines::reference(&w, &seqs, 2).unwrap();
        let mut tracer = Tracer::default();
        let wall = Instant::now();
        let out = measure(&w, &seqs, &reference, 2, 0.0, &mut tracer).unwrap();
        let wall = wall.elapsed().as_secs_f64();
        let self_sum: f64 = tracer.self_secs().values().sum();
        assert!(self_sum <= tracer.root_secs() + 1e-9);
        assert!(tracer.root_secs() <= wall);
        assert_eq!(out.tally.failed, 0);
        // One round: the stepped sequential run plus four engines per sequence.
        assert_eq!(out.tally.attempted, 5 * seqs.len() as u64);
        assert_eq!(out.metrics["core.accept_n"], 8.0);
        assert!(out.metrics["simd.lane_util"] > 0.0 && out.metrics["simd.lane_util"] <= 1.0);
    }

    #[test]
    fn replay_groups_cover_or_sample_every_split_once() {
        let all = replay_groups(100, 16);
        assert_eq!(all.iter().map(|g| g.1).sum::<usize>(), 99);
        assert_eq!(all.last(), Some(&(97, 3)));
        let sampled = replay_groups(3000, 16);
        let cells: u64 = sampled
            .iter()
            .flat_map(|&(r0, n)| r0..r0 + n)
            .map(|r| (r * (3000 - r)) as u64)
            .sum();
        assert!(sampled.len() < 3000 / 16 && cells <= 2 * REPLAY_CELL_CAP);
    }
}
