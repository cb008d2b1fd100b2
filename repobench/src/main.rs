//! `repobench` — the repository benchmark.
//!
//! ```text
//! repobench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates workload `NAME` from seed `N`, runs every engine through
//! `repro::Repro::try_run` for `S` seconds (closed loop, one analysis at
//! a time), checks every answer against the sequential engine, and
//! prints the metrics; the last line of standard output is one JSON
//! object. `--trace 1` runs the layer-traced mode instead and writes its
//! spans to `.bench_out/` when it ends. See `README.md` next to this
//! crate for the workloads and the metric → layer → workload table.

mod engines;
mod host;
mod layers;
mod trace;
mod workloads;

use engines::{median, quantile};
use host::HostStamp;
use std::process::ExitCode;

/// End-to-end metrics and units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 7] = [
    ("tops_s.seq", "s"),
    ("tops_s.simd", "s"),
    ("tops_s.simd_smp", "s"),
    ("tops_s.smp", "s"),
    ("tops_s.cluster", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 51] = [
    ("core.setup_s", "s"),
    ("core.seed_build_s", "s"),
    ("core.first_pass_n", "count"),
    ("core.first_pass_s", "s"),
    ("core.realign_n", "count"),
    ("core.realign_s", "s"),
    ("core.accept_n", "count"),
    ("core.accept_s", "s"),
    ("core.prune_n", "count"),
    ("core.prune_s", "s"),
    ("core.never_aligned_frac", "fraction"),
    ("core.realign_frac", "fraction"),
    ("core.stale_pop_frac", "fraction"),
    ("core.delineate_s", "s"),
    ("core.consensus_s", "s"),
    ("align.cells", "cells"),
    ("align.cells_per_s", "cells/s"),
    ("align.traceback_s", "s"),
    ("align.traceback_cells", "cells"),
    ("align.ckpt_hit_frac", "fraction"),
    ("align.rows_skipped_frac", "fraction"),
    ("simd.cells_per_s", "cells/s"),
    ("simd.lane_util", "fraction"),
    ("simd.speedup_over_scalar", "ratio"),
    ("simd.group_sweeps", "count"),
    ("simd.lanes_compacted", "count"),
    ("simd.lanes_skipped", "count"),
    ("simd.promoted_sweeps", "count"),
    ("simd.cells_over_seq", "ratio"),
    ("parallel.idle_s.smp", "s"),
    ("parallel.idle_s.simd_smp", "s"),
    ("parallel.task_claims.smp", "count"),
    ("parallel.task_claims.simd_smp", "count"),
    ("parallel.superseded_frac.smp", "fraction"),
    ("parallel.superseded_frac.simd_smp", "fraction"),
    ("parallel.cells_over_seq.smp", "ratio"),
    ("parallel.cells_over_seq.simd_smp", "ratio"),
    ("cluster.cells_over_seq", "ratio"),
    ("cluster.retries", "count"),
    ("cluster.broadcasts", "count"),
    ("cluster.local_fallbacks", "count"),
    ("cluster.batch_size_p50", "tasks"),
    ("cluster.overhead_over_seq_s", "s"),
    ("mem.peak_rss_mb.seq", "MB"),
    ("mem.peak_rss_mb.simd", "MB"),
    ("mem.peak_rss_mb.simd_smp", "MB"),
    ("mem.peak_rss_mb.smp", "MB"),
    ("mem.peak_rss_mb.cluster", "MB"),
    ("mem.bottom_store_mb_computed", "MB"),
    ("trace.overhead_frac", "fraction"),
    ("trace.rounds", "count"),
];

/// Where the traced mode writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: repobench --workload dna_island|protein_batch \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if out.workload.is_empty() {
        return Err(USAGE.into());
    }
    Ok(out)
}

/// One metric as the result line carries it.
fn metric_json(name: &str, value: f64, unit: &str) -> Result<String, String> {
    if !value.is_finite() {
        return Err(format!("metric {name} is not finite ({value})"));
    }
    Ok(format!(
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    ))
}

fn run(args: &Args) -> Result<bool, String> {
    let w = workloads::generate(&args.workload, args.seed)
        .ok_or(format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let host = HostStamp::probe();
    let seqs = engines::parse(&w)?;
    let residues: usize = seqs.iter().map(|s| s.len()).sum();
    println!("host: {}", host.to_json());
    println!(
        "workload: {} seed={} records={} residues={} tops={} checkpoint_budget={:?} (held-out seed {})",
        w.name,
        args.seed,
        seqs.len(),
        residues,
        w.tops,
        w.checkpoint_budget,
        workloads::HELD_OUT_SEED
    );
    let reference = engines::reference(&w, &seqs, host.nproc)?;

    let (values, tally) = if args.trace {
        let mut tracer = trace::Tracer::default();
        let mut out =
            layers::measure(&w, &seqs, &reference, host.nproc, args.seconds, &mut tracer)?;
        out.metrics.insert("trace.rounds", out.rounds as f64);
        let values = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = out.metrics.get(name).copied();
                v.map(|v| (name, v, unit))
                    .ok_or(format!("traced run did not measure {name}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        write_trace(args, &w, &host, &tracer, &values)?;
        for (name, value, unit) in &values {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        (values, out.tally)
    } else {
        let e2e = engines::measure(&w, &seqs, &reference, host.nproc, args.seconds)?;
        let samples = e2e.tops_s.iter().chain([&e2e.setup_s]);
        let mut values = Vec::new();
        for (&(name, unit), xs) in END_TO_END.iter().zip(samples) {
            let (p10, p50, p90) = (quantile(xs, 0.1), median(xs), quantile(xs, 0.9));
            println!(
                "{name:<20} {p50:>12.6} {unit}  (median of {}; p10 {p10:.6}, p90 {p90:.6})",
                xs.len()
            );
            values.push((name, p50, unit));
        }
        println!(
            "{:<20} {:>12.6} MB  (highest VmHWM)",
            "peak_rss_mb", e2e.peak_rss_mb
        );
        values.push(("peak_rss_mb", e2e.peak_rss_mb, "MB"));
        (values, e2e.tally)
    };
    println!(
        "fail_frac {:.6} ({} of {} analyses failed)",
        tally.fail_frac(),
        tally.failed,
        tally.attempted
    );
    let metrics = values
        .iter()
        .map(|&(name, value, unit)| metric_json(name, value, unit))
        .collect::<Result<Vec<_>, _>>()?;
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

/// Write the traced run's spans and metrics once the run has ended.
fn write_trace(
    args: &Args,
    w: &workloads::Workload,
    host: &HostStamp,
    tracer: &trace::Tracer,
    values: &[(&str, f64, &str)],
) -> Result<(), String> {
    let metrics = values
        .iter()
        .map(|&(name, value, unit)| metric_json(name, value, unit))
        .collect::<Result<Vec<_>, _>>()?;
    let self_s: Vec<String> = tracer
        .self_secs()
        .iter()
        .map(|(name, secs)| format!("\"{name}\": {secs}"))
        .collect();
    let meta = format!(
        "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"wall_s\": {}, \"self_s\": {{{}}}, \"metrics\": {{{}}}}}",
        host.to_json(),
        w.name,
        args.seed,
        tracer.root_secs(),
        self_s.join(", "),
        metrics.join(", ")
    );
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", w.name, args.seed);
    std::fs::write(&path, tracer.to_chrome_json(&meta))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("repobench: wrote {} spans to {path}", tracer.spans().len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("repobench: some engine disagreed with the sequential reference");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("repobench: {e}");
            ExitCode::from(2)
        }
    }
}
