//! `skewbench` — the repository benchmark.
//!
//! ```text
//! skewbench --serve PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for `S` seconds on inputs generated from seed `N`,
//! checks every output, and prints one line per metric followed by a
//! final JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the workload runs twice — half the time untraced, half
//! traced — and the metrics are the per-layer ones plus the tracing
//! overhead. `--serve` names the `skewbound-serve` binary the net
//! workloads launch. See `README.md` for the workloads and metrics.

mod gen;
mod mc;
mod net;
mod probe;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

use skewbound_core::params::Params;
use skewbound_spec::seqspec::OpClass;

use crate::stats::Spread;

/// In-process set-up is repeated this many times per run; the median is
/// reported.
pub const SETUP_REPEATS: usize = 25;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_sec", "1/s"),
    ("aop_p50_ms", "ms"),
    ("mop_p50_ms", "ms"),
    ("oop_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// a workload does not exercise reads 0 there. Times appear only where
/// every workload measures them; workload-specific quantities are
/// counts per unit of work, rates, or shares of a reference time (the
/// op's own latency, its class bound, or `d`). The per-class 90th
/// percentiles lead the list: every untraced run prints them too, but
/// host stalls move them too far between runs to bound them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("aop_p90_ms", "ms"),
    ("mop_p90_ms", "ms"),
    ("oop_p90_ms", "ms"),
    ("net.runtime.queue_wait_share.p50", "frac"),
    ("net.runtime.queue_wait_share.p90", "frac"),
    ("net.frames_per_op", "count"),
    ("core.replica.op_bound_frac.aop.p50", "frac"),
    ("core.replica.op_bound_frac.aop.p90", "frac"),
    ("core.replica.op_bound_frac.mop.p50", "frac"),
    ("core.replica.op_bound_frac.mop.p90", "frac"),
    ("core.replica.op_bound_frac.oop.p50", "frac"),
    ("core.replica.op_bound_frac.oop.p90", "frac"),
    ("net.deliver_d_frac.p50", "frac"),
    ("net.deliver_d_frac.p90", "frac"),
    ("net.out_of_window", "count"),
    ("net.tcp.hop_us.p50", "us"),
    ("net.tcp.hop_us.p90", "us"),
    ("net.client.return_share.p50", "frac"),
    ("net.client.return_share.p90", "frac"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.wire.bytes_per_op", "B"),
    ("net.wire.service_share", "frac"),
    ("load.lag_d_frac.p90", "frac"),
    ("sim.events_per_op", "count"),
    ("sim.events_per_sec", "1/s"),
    ("sim.run_share", "frac"),
    ("sim.par.busy_frac", "frac"),
    ("lin.nodes_per_op", "count"),
    ("lin.memo_hits_per_op", "count"),
    ("lin.nodes_per_sec", "1/s"),
    ("mc.schedules_per_query", "count"),
    ("mc.states_per_query", "count"),
    ("mc.states_per_sec", "1/s"),
    ("mc.pruned_per_query", "count"),
    ("mc.table_hits_per_query", "count"),
    ("mc.table_entries_per_query", "count"),
    ("trace.overhead_frac", "frac"),
];

const WORKLOADS: &[&str] = &[
    "net-queue-paced",
    "net-queue-saturated",
    "sim-shard",
    "mc-register",
];

/// Latency samples (ms), split by operation class.
#[derive(Debug, Default)]
pub struct ClassLatency {
    pub aop: Vec<f64>,
    pub mop: Vec<f64>,
    pub oop: Vec<f64>,
}

impl ClassLatency {
    pub fn push(&mut self, class: OpClass, ms: f64) {
        match class {
            OpClass::PureAccessor => self.aop.push(ms),
            OpClass::PureMutator => self.mop.push(ms),
            OpClass::Other => self.oop.push(ms),
        }
    }

    pub fn merge(&mut self, other: ClassLatency) {
        self.aop.extend(other.aop);
        self.mop.extend(other.mop);
        self.oop.extend(other.oop);
    }

    /// All latencies regardless of class.
    pub fn all(&self) -> Vec<f64> {
        [&self.aop[..], &self.mop[..], &self.oop[..]].concat()
    }
}

/// The paper's latency bound of `class` under `params`, in ms:
/// `d + ε − X` (AOP), `ε + X` (MOP), `d + ε` (OOP).
pub fn class_bound_ms(class: OpClass, params: &Params) -> f64 {
    let (d, eps, x) = (params.d(), params.eps(), params.x());
    let bound = match class {
        OpClass::PureAccessor => d + eps - x,
        OpClass::PureMutator => eps + x,
        OpClass::Other => d + eps,
    };
    bound.as_ticks() as f64 / 1e3
}

/// One run's verdict and measurements.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    /// Cost of one unit of the workload's work — CPU seconds per op for
    /// the CPU-bound workloads, wall seconds per op for the saturated
    /// mesh, median latency for the paced one: the basis of the
    /// tracing-overhead figure.
    pub cost: f64,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            cost: 0.0,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets the six per-class latency metrics and notes each class's
    /// sample count next to its bound under `params`.
    pub fn latency(&mut self, lat: ClassLatency, params: &Params, what: &str) {
        let classes = [
            ("aop", OpClass::PureAccessor, "d+eps-X", lat.aop),
            ("mop", OpClass::PureMutator, "eps+X", lat.mop),
            ("oop", OpClass::Other, "d+eps", lat.oop),
        ];
        for (name, class, formula, samples) in classes {
            let s = Spread::of(samples);
            self.note(format!(
                "{name}: n={} p50={:.4} ms p90={:.4} ms ({what}); protocol bound {formula} = {:.3} ms",
                s.n,
                s.p50,
                s.p90,
                class_bound_ms(class, params)
            ));
            let (p50, p90) = match class {
                OpClass::PureAccessor => ("aop_p50_ms", "aop_p90_ms"),
                OpClass::PureMutator => ("mop_p50_ms", "mop_p90_ms"),
                OpClass::Other => ("oop_p50_ms", "oop_p90_ms"),
            };
            self.set(p50, s.p50);
            self.set(p90, s.p90);
        }
    }
}

struct Args {
    serve: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn fail(msg: &str) -> ! {
    eprintln!(
        "skewbench: {msg}\nusage: skewbench --serve PATH --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut serve = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--serve" => serve = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| fail("bad --seed"))),
            "--seconds" => {
                seconds = Some(value.parse().unwrap_or_else(|_| fail("bad --seconds")));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace wants 0 or 1"),
                });
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let args = Args {
        serve: serve.unwrap_or_else(|| fail("--serve is required")),
        workload: workload.unwrap_or_else(|| fail("--workload is required")),
        seed: seed.unwrap_or_else(|| fail("--seed is required")),
        seconds: seconds.unwrap_or_else(|| fail("--seconds is required")),
        trace: trace.unwrap_or(false),
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        fail(&format!("unknown workload {}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        fail("--seconds must be positive");
    }
    args
}

fn run(args: &Args, seconds: f64, traced: bool) -> Outcome {
    match args.workload.as_str() {
        "net-queue-paced" => net::run(&args.serve, net::Mode::Paced, args.seed, seconds, traced),
        "net-queue-saturated" => net::run(
            &args.serve,
            net::Mode::Saturated,
            args.seed,
            seconds,
            traced,
        ),
        "sim-shard" => sim::run(args.seed, seconds, traced),
        "mc-register" => mc::run(args.seed, seconds, traced),
        _ => unreachable!("workload names are validated"),
    }
}

/// Formats one JSON metric entry. `Display` for `f64` prints the
/// shortest digits that round-trip, never in exponent form.
fn json_metric(name: &str, unit: &str, value: f64) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The hidden mode [`probe::KeepAwake`] runs its idle-priority CPU
/// spinners in.
pub const KEEP_AWAKE_FLAG: &str = "--keep-awake";

fn main() {
    if std::env::args().nth(1).as_deref() == Some(KEEP_AWAKE_FLAG) {
        // Spin until the benchmark that started this process is gone —
        // normally it kills the spinner first.
        let parent = std::os::unix::process::parent_id();
        while std::os::unix::process::parent_id() == parent {
            for _ in 0..1_000_000 {
                std::hint::spin_loop();
            }
        }
        return;
    }
    let args = parse_args();
    let (outcome, table) = if args.trace {
        let plain = run(&args, args.seconds / 2.0, false);
        let mut traced = run(&args, args.seconds / 2.0, true);
        let overhead = traced.cost / plain.cost - 1.0;
        traced.note(format!(
            "tracing overhead: {:+.2}% (untraced half: {} ops, {} failed)",
            overhead * 100.0,
            plain.attempted,
            plain.failed
        ));
        traced.set("trace.overhead_frac", overhead);
        let hop = probe::tcp_hop();
        traced.set("net.tcp.hop_us.p50", hop.p50);
        traced.set("net.tcp.hop_us.p90", hop.p90);
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        (traced, PER_LAYER)
    } else {
        (run(&args, args.seconds, false), END_TO_END)
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    println!(
        "  fail_frac {} ({} of {} failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let mut entries = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload does not exercise.
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        println!("  {name} {value} {unit}");
        entries.push(json_metric(name, unit, value));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        entries.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The string value of `"key": "value"` in `line`.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(&rest[..rest.find('"')?])
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this binary prints, in the same order and units. (The
    /// file holds one metric per line; its bounds are not integers, so
    /// the integer-only `lint::json` parser cannot read it.)
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let section = &text[text.find(&format!("\"{key}\"")).expect("metric list")..];
            let section = &section[..section.find(']').expect("list end")];
            let declared: Vec<(&str, &str)> = section
                .lines()
                .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
                .collect();
            assert_eq!(declared, table, "{key}");
        }
    }
}
