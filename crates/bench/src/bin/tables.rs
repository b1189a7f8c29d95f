//! Regenerates every table and figure experiment of the paper.
//!
//! ```text
//! tables [--object register|queue|stack|tree] [--scale N] [--shards S1,S2,...]
//!        [--fig fig1|thmC|thmD|thmE|derive|ablation|nsweep|xsweep|drift|skew]
//! ```
//!
//! `--scale N` additionally runs one register workload at `N` replica
//! processes in a single simulation and records its throughput and peak
//! RSS in `BENCH_grid.json`.
//!
//! `--shards S1,S2,...` additionally runs the sharded-namespace scaling
//! grid at each listed shard count (fixed total work, every shard gated
//! by the per-shard linearizability check) and records the curve in
//! `BENCH_grid.json`.
//!
//! With no arguments, prints everything: Tables I–IV and all figure
//! experiments, using the workspace default parameters.

use skewbound_bench::default_params;
use skewbound_bench::figures;
use skewbound_bench::measure::{scale_run, shard_scaling, GridStats, ScaleStats, ShardScalePoint};
use skewbound_bench::report::{table_report_stats, Object};
use skewbound_core::replica::Replica;
use skewbound_mc::{model_check, McConfig, McReport};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_spec::prelude::*;
use skewbound_spec::probes;

const USAGE: &str = "usage: tables [--object register|queue|stack|tree] [--csv] [--scale N] \
     [--shards S1,S2,...] \
     [--fig fig1|thmC|thmD|thmE|derive|ablation|nsweep|xsweep|drift|skew]";

/// Parses `--scale`'s argument: a positive process count. Prints the
/// usage message and exits with status 2 on anything else (zero,
/// negative, non-numeric) instead of panicking.
fn parse_scale(value: &str) -> usize {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("--scale needs a positive process count, got {value:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Parses `--shards`'s argument: a non-empty comma-separated list of
/// positive shard counts. Prints the usage message and exits with
/// status 2 on anything else.
fn parse_shards(value: &str) -> Vec<usize> {
    let counts: Option<Vec<usize>> = value
        .split(',')
        .map(|part| match part.trim().parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => None,
        })
        .collect();
    match counts {
        Some(counts) if !counts.is_empty() => counts,
        _ => {
            eprintln!(
                "--shards needs a comma-separated list of positive shard counts, got {value:?}"
            );
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = default_params();
    let ops_per_process = 8;

    let mut object_filter: Option<&str> = None;
    let mut fig_filter: Option<&str> = None;
    let mut csv = false;
    let mut scale: Option<usize> = None;
    let mut shard_counts: Option<Vec<usize>> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--object" => {
                object_filter = Some(Box::leak(
                    iter.next()
                        .expect("--object needs a value")
                        .clone()
                        .into_boxed_str(),
                ));
            }
            "--fig" => {
                fig_filter = Some(Box::leak(
                    iter.next()
                        .expect("--fig needs a value")
                        .clone()
                        .into_boxed_str(),
                ));
            }
            "--csv" => csv = true,
            "--scale" => {
                let Some(value) = iter.next() else {
                    eprintln!("--scale needs a value");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                };
                scale = Some(parse_scale(value));
            }
            "--shards" => {
                let Some(value) = iter.next() else {
                    eprintln!("--shards needs a value");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                };
                shard_counts = Some(parse_shards(value));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    println!("skewbound experiment harness — params: {params}");
    println!("(1 tick = 1 µs; bounds and measurements in ticks)\n");

    let want_object = |name: &str| object_filter.is_none() || object_filter == Some(name);
    let want_fig = |name: &str| {
        !csv && object_filter.is_none() && (fig_filter.is_none() || fig_filter == Some(name))
    };

    if fig_filter.is_none() {
        let mut stats = GridStats::default();
        let sweep_start = std::time::Instant::now();
        for (object, name) in [
            (Object::Register, "register"),
            (Object::Queue, "queue"),
            (Object::Stack, "stack"),
            (Object::Tree, "tree"),
        ] {
            if !want_object(name) {
                continue;
            }
            let (report, object_stats) = table_report_stats(object, &params, ops_per_process);
            stats.absorb(object_stats);
            if csv {
                print!("{}", report.to_csv());
                continue;
            }
            println!("{}", report.render());
            match report.verify() {
                Ok(()) => println!("  verification: all measured values within bounds\n"),
                Err(e) => println!("  verification FAILED: {e}\n"),
            }
        }
        if stats.runs > 0 {
            let elapsed = sweep_start.elapsed();
            if let Some(path) = skewbound_bench::measure::trace_counters_path() {
                match skewbound_bench::measure::write_trace_counters(&stats, &path) {
                    Ok(()) => println!("trace counters -> {}", path.display()),
                    Err(e) => eprintln!("failed to write {}: {e}", path.display()),
                }
            }
            let scale_stats = scale.map(|n| {
                let s = scale_run(n, 8);
                if !csv {
                    println!(
                        "scale run: {} processes, {} events in {:.3?} \
                         ({:.0} events/sec, peak RSS {} MiB)",
                        s.processes,
                        s.report.events,
                        std::time::Duration::from_nanos(s.report.wall_nanos),
                        s.report.events_per_sec(),
                        s.report.peak_rss_bytes >> 20,
                    );
                }
                s
            });
            let shard_points: Vec<ShardScalePoint> =
                shard_counts.as_deref().map_or_else(Vec::new, |counts| {
                    let points = shard_scaling(counts);
                    if !csv {
                        for p in &points {
                            println!(
                                "shard run: {} shard(s): {} events, \
                                 {:.0} aggregate events/sec ({} keys gated)",
                                p.shards, p.events, p.agg_events_per_sec, p.checked_keys,
                            );
                        }
                    }
                    points
                });
            let mc = mc_throughput_run();
            if !csv {
                println!(
                    "model-check run: {} schedules, {} engine events on {} worker(s) \
                     ({:.0} explored states/sec)",
                    mc.schedules,
                    mc.explored_states,
                    mc.workers,
                    mc.explored_states_per_sec(),
                );
            }
            if let Err(e) =
                write_grid_bench(&stats, scale_stats.as_ref(), &shard_points, &mc, elapsed)
            {
                eprintln!("failed to write BENCH_grid.json: {e}");
            } else if !csv {
                println!(
                    "grid sweep: {} runs on {} worker(s) in {elapsed:.3?} \
                     ({:.0} events/sec sim, {:.0} checker nodes/sec) -> BENCH_grid.json",
                    stats.runs,
                    stats.workers,
                    stats.events_per_sec(),
                    stats.check_nodes_per_sec(),
                );
            }
        }
    }

    if want_fig("fig1") {
        println!("{}", figures::fig1(&params));
    }
    if want_fig("thmC") {
        println!("{}", figures::thm_c1(&params));
    }
    if want_fig("thmD") {
        println!("{}", figures::thm_d1(&params, params.n()));
    }
    if want_fig("thmE") {
        println!("{}", figures::thm_e1(&params));
    }
    if want_fig("derive") {
        println!("{}", figures::derivation(&params));
    }
    if want_fig("ablation") {
        println!("{}", figures::ablation_timers(&params));
    }
    if want_fig("nsweep") {
        println!(
            "{}",
            figures::n_sweep(
                SimDuration::from_ticks(9_000),
                SimDuration::from_ticks(2_400),
                8,
            )
        );
    }
    if want_fig("xsweep") {
        println!("{}", figures::x_sweep(&params, 5));
    }
    if want_fig("drift") {
        println!("{}", figures::drift_experiment(&params, 40));
    }
    if want_fig("skew") {
        println!(
            "{}",
            figures::skew_experiment(
                SimDuration::from_ticks(9_000),
                SimDuration::from_ticks(2_400),
                8,
            )
        );
    }
}

/// Explores the honest register under a truncated clock grid with the
/// parallel model checker (worker count from the environment, see
/// `SKEWBOUND_THREADS`) purely to measure explorer throughput for
/// `BENCH_grid.json`. Truncating to three clock corners keeps this well
/// inside the CI time budget while still exercising the work-stealing
/// frontier and the shared transposition table.
fn mc_throughput_run() -> McReport {
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::register_states());
    config.clock_choices.truncate(3);
    let pid = ProcessId::new;
    let t = SimTime::from_ticks;
    let script = [
        (pid(0), t(0), RmwOp::Write(1)),
        (pid(1), t(0), RmwOp::Write(2)),
        (pid(2), t(40_000), RmwOp::Read),
    ];
    model_check(
        &RmwRegister::default(),
        || Replica::group(RmwRegister::default(), &p),
        &p,
        &script,
        &config,
    )
}

/// Writes the machine-readable grid benchmark summary. The workspace has
/// no JSON dependency, so the (flat, numeric) object is written by hand.
/// The `scale_*` fields are zero when `--scale` was not requested;
/// `shards` / `shard_events_per_sec` are zero and `shard_scaling` empty
/// when `--shards` was not requested. The headline `shards` /
/// `shard_events_per_sec` pair reports the largest shard count; the
/// full curve is in the `shard_scaling` array,
/// whose entries use `shard_count` so every field name stays unique in
/// the file (the CI greps rely on that). The `mc_*` fields and
/// `explored_states_per_sec` report the model-checker throughput run
/// from [`mc_throughput_run`].
fn write_grid_bench(
    stats: &GridStats,
    scale: Option<&ScaleStats>,
    shard_points: &[ShardScalePoint],
    mc: &McReport,
    elapsed: std::time::Duration,
) -> std::io::Result<()> {
    let headline = shard_points.iter().max_by_key(|p| p.shards);
    let shard_curve = shard_points
        .iter()
        .map(|p| {
            format!(
                "\n    {{ \"shard_count\": {}, \"shard_events\": {}, \
                 \"agg_events_per_sec\": {:.1}, \"max_shard_wall_nanos\": {}, \
                 \"gated_keys\": {} }}",
                p.shards, p.events, p.agg_events_per_sec, p.max_wall_nanos, p.checked_keys,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\n  \"runs\": {},\n  \"workers\": {},\n  \"elapsed_nanos\": {},\n  \
         \"sim_wall_nanos\": {},\n  \"check_wall_nanos\": {},\n  \"events\": {},\n  \
         \"events_per_sec\": {:.1},\n  \"check_nodes\": {},\n  \
         \"check_nodes_per_sec\": {:.1},\n  \"check_memo_hits\": {},\n  \
         \"check_max_frontier\": {},\n  \"peak_rss_bytes\": {},\n  \
         \"scale_processes\": {},\n  \"scale_events\": {},\n  \
         \"scale_events_per_sec\": {:.1},\n  \"scale_wall_nanos\": {},\n  \
         \"scale_peak_rss_bytes\": {},\n  \"shards\": {},\n  \
         \"shard_events_per_sec\": {:.1},\n  \"mc_workers\": {},\n  \
         \"mc_schedules\": {},\n  \"mc_explored_states\": {},\n  \
         \"mc_wall_nanos\": {},\n  \"explored_states_per_sec\": {:.1},\n  \
         \"shard_scaling\": [{}{}]\n}}\n",
        stats.runs,
        stats.workers,
        elapsed.as_nanos(),
        stats.sim_wall_nanos,
        stats.check_wall_nanos,
        stats.events,
        stats.events_per_sec(),
        stats.check_nodes,
        stats.check_nodes_per_sec(),
        stats.check_memo_hits,
        stats.check_max_frontier,
        stats.peak_rss_bytes,
        scale.map_or(0, |s| s.processes),
        scale.map_or(0, |s| s.report.events),
        scale.map_or(0.0, |s| s.report.events_per_sec()),
        scale.map_or(0, |s| s.report.wall_nanos),
        scale.map_or(0, |s| s.report.peak_rss_bytes),
        headline.map_or(0, |p| p.shards),
        headline.map_or(0.0, |p| p.agg_events_per_sec),
        mc.workers,
        mc.schedules,
        mc.explored_states,
        mc.wall_nanos,
        mc.explored_states_per_sec(),
        shard_curve,
        if shard_points.is_empty() { "" } else { "\n  " },
    );
    std::fs::write("BENCH_grid.json", json)
}
