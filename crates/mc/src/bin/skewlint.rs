//! `skewlint` — the protocol-invariant analyzer CI runs.
//!
//! Five gates, in order:
//!
//! 1. **Routing lints** (static): the declared operation classes of the
//!    register/queue/stack specifications are cross-checked against
//!    their behavior on the probe sets ([`skewbound_core::invariants::
//!    routing_lint`]). Honest specs must come back clean; a canned
//!    misrouted spec must be flagged (the lint itself is tested here,
//!    not trusted).
//! 2. **Rule registry** (static): the `SB0xx` rules of
//!    [`skewbound_lint::rules`] run over the honest specs (must be
//!    clean) and then over one seeded foil per rule (must be caught).
//!    Every catch is recorded as a canary in the machine-readable
//!    report.
//! 3. **Model checking** (honest): small register/queue/stack scenarios
//!    under Algorithm 1 are explored over every delay corner, clock
//!    corner and same-time delivery order. Zero violations expected;
//!    each scenario is explored under both the DPOR and the naive
//!    independence relation and the DPOR schedule count must be
//!    *strictly* smaller — the reduction is measured, not assumed.
//! 4. **Foils**: known-broken implementations must be caught, and each
//!    catch is shrunk to a minimized, replay-confirmed certificate,
//!    written to the output directory and schema-validated by re-parse.
//! 5. **Trace audit**: a real honest register run is traced and audited
//!    offline ([`skewbound_lint::audit`]) against the declared delivery
//!    window — it must be clean — and five synthesized foil traces
//!    (late delivery, orphan/duplicate messages, FIFO inversion, leaked
//!    timer, leaked payloads) must each trip their `SB1xx` rule. The
//!    combined rule report is written to `report.json` and re-validated
//!    against the `skewbound-lint-report/v1` schema.
//!
//! Usage: `skewlint [--smoke] [--out DIR] [--trace FILE]`, or one of
//! the subcommands:
//!
//! * `skewlint rules [--out DIR]` — only the static rule registry and
//!   the trace-audit canaries (gates 2 and 5), writing `report.json`
//!   and `honest.trace.jsonl` to the output directory.
//! * `skewlint audit FILE [--window D,U]` — audit an arbitrary
//!   JSON-lines trace; prints every diagnostic, a summary line, and
//!   `audit: OK` iff there are no error-severity findings (warnings do
//!   not fail the audit).
//!
//! `--smoke` trims the clock grid for CI latency; `--out` defaults to
//! `target/skewlint`; `--trace` additionally replays the first foil's
//! minimized counterexample with a JSON-lines trace sink attached,
//! writes the trace to `FILE`, and cross-checks it against the
//! certificate coordinates (DESIGN.md §9).
//! Exits nonzero (after finishing all gates) if any expectation fails;
//! the final line is `skewlint: OK` exactly when everything held.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use skewbound_core::foils::{eager_group, LocalFirstReplica};
use skewbound_core::invariants::routing_lint;
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_core::timestamp::Timestamp;
use skewbound_lint::audit::{audit_text, AuditConfig};
use skewbound_lint::diag::{validate_report, Report};
use skewbound_lint::rules::{
    AccessorPurityRule, CommutativityRule, NsBatchRule, PayloadLeakRule, Registry, RoutingRule,
    Rule, TimestampSeqRule,
};
use skewbound_mc::trace::parse_lines;
use skewbound_mc::{
    certify, minimize_counted, model_check, replay_traced, validate_certificate, Independence,
    McConfig, ModelActor, RunVerdict, SharedJsonLinesSink,
};
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::FixedDelay;
use skewbound_sim::engine::{SimReport, Simulation};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{ClockTime, SimDuration, SimTime};
use skewbound_sim::trace::TraceSink;
use skewbound_spec::prelude::*;
use skewbound_spec::probes;

fn params() -> Params {
    Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_400),
        SimDuration::ZERO,
    )
    .expect("valid parameters")
}

/// A register that misdeclares its read as a pure mutator — the lint
/// gate's canary.
#[derive(Debug, Clone, Default)]
struct MisroutedRegister;

impl SequentialSpec for MisroutedRegister {
    type State = i64;
    type Op = RmwOp;
    type Resp = RmwResp;

    fn initial(&self) -> i64 {
        0
    }
    fn apply(&self, state: &i64, op: &RmwOp) -> (i64, RmwResp) {
        RmwRegister::default().apply(state, op)
    }
    fn class(&self, _op: &RmwOp) -> OpClass {
        OpClass::PureMutator
    }
}

/// A counter that lies about commutativity: claims mixed Add/Read pairs
/// commute (they do not) and denies Add/Add commuting (they do) — the
/// `SB003` canary.
#[derive(Debug, Clone, Default)]
struct DeclLiarCounter;

impl SequentialSpec for DeclLiarCounter {
    type State = i64;
    type Op = CounterOp;
    type Resp = CounterResp;

    fn initial(&self) -> i64 {
        0
    }
    fn apply(&self, state: &i64, op: &CounterOp) -> (i64, CounterResp) {
        Counter::default().apply(state, op)
    }
    fn class(&self, op: &CounterOp) -> OpClass {
        Counter::default().class(op)
    }
    fn declares_commuting(&self, a: &CounterOp, b: &CounterOp) -> Option<bool> {
        match (a, b) {
            (CounterOp::Add(_), CounterOp::Add(_)) => Some(false),
            (CounterOp::Read, CounterOp::Read) => None,
            _ => Some(true),
        }
    }
}

/// A namespace whose keys are not independent: writing key 7 also
/// clobbers key 40, so batched application over distinct keys is
/// order-dependent — the `SB004` canary.
#[derive(Debug, Clone, Default)]
struct CrossTalkNs;

impl SequentialSpec for CrossTalkNs {
    type State = std::collections::BTreeMap<u64, i64>;
    type Op = NsOp<RmwOp>;
    type Resp = RmwResp;

    fn initial(&self) -> Self::State {
        std::collections::BTreeMap::new()
    }
    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, RmwResp) {
        let ns = Namespace::new(RmwRegister::default());
        let (mut next, resp) = ns.apply(state, op);
        if op.key == 7 {
            if let RmwOp::Write(v) = op.op {
                next.insert(40, v);
            }
        }
        (next, resp)
    }
    fn class(&self, op: &Self::Op) -> OpClass {
        RmwRegister::default().class(&op.op)
    }
}

struct Gate {
    failures: u32,
}

impl Gate {
    fn expect(&mut self, ok: bool, what: &str) {
        if ok {
            println!("  ok: {what}");
        } else {
            self.failures += 1;
            println!("  FAIL: {what}");
        }
    }
}

fn lint_gate(gate: &mut Gate) {
    println!("[1/5] routing lints");
    let clean_register = routing_lint(
        &RmwRegister::default(),
        &probes::register_states(),
        &probes::register_ops(),
    );
    gate.expect(clean_register.is_empty(), "register routing clean");
    let clean_queue = routing_lint(
        &Queue::<i64>::new(),
        &probes::queue_states(),
        &probes::queue_ops(),
    );
    gate.expect(clean_queue.is_empty(), "queue routing clean");
    let clean_stack = routing_lint(
        &Stack::<i64>::new(),
        &probes::stack_states(),
        &probes::stack_ops(),
    );
    gate.expect(clean_stack.is_empty(), "stack routing clean");
    for finding in clean_register
        .iter()
        .chain(&clean_queue)
        .chain(&clean_stack)
    {
        println!("    {finding}");
    }
    let canary = routing_lint(
        &MisroutedRegister,
        &probes::register_states(),
        &probes::register_ops(),
    );
    gate.expect(
        canary.iter().any(|v| v.invariant == "routing-consistency"),
        "misrouted canary flagged",
    );
}

fn ts(time: i64, pid: u32) -> Timestamp {
    Timestamp::new(ClockTime::from_ticks(time), ProcessId::new(pid))
}

/// The honest registry: every static rule bound to an honest spec and
/// its probe sets. Must run clean.
fn honest_registry(honest_leaks: u64) -> Registry {
    let mut reg = Registry::new();
    reg.register(Box::new(RoutingRule::new(
        "register",
        RmwRegister::default(),
        probes::register_states(),
        probes::register_ops(),
    )));
    reg.register(Box::new(AccessorPurityRule::new(
        "register",
        RmwRegister::default(),
        probes::register_states(),
        probes::register_ops(),
    )));
    reg.register(Box::new(CommutativityRule::new(
        "counter",
        Counter::default(),
        probes::counter_states(),
        probes::counter_ops(),
    )));
    reg.register(Box::new(NsBatchRule::new(
        "ns-register",
        Namespace::new(RmwRegister::default()),
        probes::ns_register_states(),
        probes::ns_register_ops(),
    )));
    reg.register(Box::new(TimestampSeqRule::new(
        "executed-order",
        vec![ts(100, 0), ts(250, 0), ts(250, 1), ts(400, 2)],
    )));
    reg.register(Box::new(PayloadLeakRule::new(
        "register/honest-run",
        honest_leaks,
    )));
    reg
}

/// Runs one foil rule and records the canary: the rule must emit its
/// own code against the seeded violation.
fn canary(gate: &mut Gate, report: &mut Report, code: &'static str, what: &str, rule: &dyn Rule) {
    let mut out = Vec::new();
    rule.check(&mut out);
    let caught = out.iter().any(|d| d.code == code);
    report.add_canary(code, caught);
    gate.expect(caught, &format!("{code} foil caught ({what})"));
}

/// Gate 2: the static rule registry over honest specs plus one seeded
/// foil per rule. `honest_leaks` is the payload-leak counter observed
/// on the honest traced run (gate 5 audits the same run's trace).
fn rules_gate(gate: &mut Gate, header: &str, honest_leaks: u64) -> Report {
    println!("{header} rule registry (static spec rules)");
    let reg = honest_registry(honest_leaks);
    println!("  {} rules registered", reg.len());
    let mut report = reg.run();
    for d in &report.diagnostics {
        println!("    {d}");
    }
    gate.expect(report.is_clean(), "honest specs clean under every rule");

    canary(
        gate,
        &mut report,
        "SB001",
        "misrouted register",
        &RoutingRule::new(
            "foil/misrouted",
            MisroutedRegister,
            probes::register_states(),
            probes::register_ops(),
        ),
    );
    canary(
        gate,
        &mut report,
        "SB002",
        "impure mutator",
        &AccessorPurityRule::new(
            "foil/misrouted",
            MisroutedRegister,
            probes::register_states(),
            probes::register_ops(),
        ),
    );
    canary(
        gate,
        &mut report,
        "SB003",
        "lying commutativity declaration",
        &CommutativityRule::new(
            "foil/decl-liar",
            DeclLiarCounter,
            probes::counter_states(),
            probes::counter_ops(),
        ),
    );
    canary(
        gate,
        &mut report,
        "SB004",
        "cross-talking namespace keys",
        &NsBatchRule::new(
            "foil/cross-talk",
            CrossTalkNs,
            probes::ns_register_states(),
            probes::ns_register_ops(),
        ),
    );
    canary(
        gate,
        &mut report,
        "SB005",
        "descending and repeated timestamps",
        &TimestampSeqRule::new("foil/bad-order", vec![ts(300, 0), ts(200, 1), ts(200, 1)]),
    );
    canary(
        gate,
        &mut report,
        "SB105",
        "leaked payload slots",
        &PayloadLeakRule::new("foil/leaky-run", 2),
    );
    report
}

#[allow(clippy::too_many_arguments)]
fn check_honest<A, F>(
    gate: &mut Gate,
    name: &str,
    spec: &A::Spec,
    make_actors: F,
    p: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    probe_states: Vec<<A::Spec as SequentialSpec>::State>,
    smoke: bool,
) -> (u64, u64)
where
    A: ModelActor,
    A::Spec: Sync,
    <A::Spec as SequentialSpec>::State: Sync,
    <A::Spec as SequentialSpec>::Op: Send + Sync,
    <A::Spec as SequentialSpec>::Resp: Send + Sync,
    F: Fn() -> Vec<A> + Sync,
{
    let mut config = McConfig::corners(p, probe_states);
    if smoke {
        config.clock_choices.truncate(3);
    }
    let dpor = model_check(spec, &make_actors, p, script, &config);
    config.independence = Independence::Naive;
    // The naive baseline exists to be outgrown; cap it so measuring the
    // reduction stays cheap (a capped count is a lower bound).
    config.max_schedules = 20_000;
    let naive = model_check(spec, &make_actors, p, script, &config);
    println!(
        "  {name}: messages={} cells={} schedules dpor={} naive{}{} pruned={} violations={} \
         explored-states/sec={:.0}",
        dpor.messages,
        dpor.cells,
        dpor.schedules,
        if naive.capped { ">=" } else { "=" },
        naive.schedules,
        dpor.pruned,
        dpor.violations.len(),
        dpor.explored_states_per_sec(),
    );
    gate.expect(dpor.all_passed(), &format!("{name} honest runs all pass"));
    gate.expect(
        naive.violations.is_empty() && naive.unknown == 0,
        &format!("{name} naive exploration agrees"),
    );
    gate.expect(
        dpor.schedules < naive.schedules,
        &format!(
            "{name} DPOR reduction is real ({} < {})",
            dpor.schedules, naive.schedules
        ),
    );
    (dpor.explored_states, dpor.wall_nanos)
}

/// Runs the honest-implementation scenarios and returns the aggregate
/// explorer throughput (engine events per wall-clock second, rounded)
/// across their DPOR runs, for the lint report's advisory field.
fn honest_gate(gate: &mut Gate, smoke: bool) -> i64 {
    println!("[3/5] model-check honest implementations (Algorithm 1)");
    let p = params();
    let t = SimTime::from_ticks;
    let pid = ProcessId::new;
    let mut events = 0u64;
    let mut nanos = 0u64;
    let mut tally = |(e, n): (u64, u64)| {
        events += e;
        nanos += n;
    };

    tally(check_honest(
        gate,
        "register",
        &RmwRegister::default(),
        || Replica::group(RmwRegister::default(), &p),
        &p,
        &[
            (pid(0), t(0), RmwOp::Write(1)),
            (pid(1), t(0), RmwOp::Write(2)),
            (pid(2), t(40_000), RmwOp::Read),
        ],
        probes::register_states(),
        smoke,
    ));
    tally(check_honest(
        gate,
        "queue",
        &Queue::<i64>::new(),
        || Replica::group(Queue::<i64>::new(), &p),
        &p,
        &[
            (pid(0), t(0), QueueOp::Enqueue(1)),
            (pid(1), t(0), QueueOp::Enqueue(2)),
            (pid(2), t(40_000), QueueOp::Dequeue),
        ],
        probes::queue_states(),
        smoke,
    ));
    tally(check_honest(
        gate,
        "stack",
        &Stack::<i64>::new(),
        || Replica::group(Stack::<i64>::new(), &p),
        &p,
        &[
            (pid(0), t(0), StackOp::Push(7)),
            (pid(1), t(200), StackOp::Pop),
        ],
        probes::stack_states(),
        smoke,
    ));
    if nanos == 0 {
        return 0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
    {
        (events as f64 * 1e9 / nanos as f64).round() as i64
    }
}

#[allow(clippy::too_many_arguments)]
fn check_foil<A, F>(
    gate: &mut Gate,
    out_dir: &Path,
    file: &str,
    object: &str,
    implementation: &str,
    spec: &A::Spec,
    make_actors: F,
    p: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    probe_states: Vec<<A::Spec as SequentialSpec>::State>,
) where
    A: ModelActor,
    A::Spec: Sync,
    <A::Spec as SequentialSpec>::State: Sync,
    <A::Spec as SequentialSpec>::Op: Send + Sync,
    <A::Spec as SequentialSpec>::Resp: Send + Sync,
    F: Fn() -> Vec<A> + Sync,
{
    let mut config = McConfig::corners(p, probe_states);
    config.stop_at_first_violation = true;
    let report = model_check(spec, &make_actors, p, script, &config);
    let name = format!("{object}/{implementation}");
    gate.expect(
        !report.violations.is_empty(),
        &format!("{name} foil caught"),
    );
    let Some(violation) = report.violations.first() else {
        return;
    };
    let cert = certify(
        spec,
        &make_actors,
        p,
        script,
        &config,
        violation,
        object,
        implementation,
        &report,
    );
    println!(
        "  {name}: {} at clock#{} delays={:?} choices={:?} (minimized)",
        cert.violation_kind, violation.clock_idx, cert.delay_ticks, cert.schedule_choices,
    );
    gate.expect(cert.replay_confirmed, &format!("{name} replay confirmed"));
    let text = cert.to_json();
    match validate_certificate(&text) {
        Ok(()) => gate.expect(true, &format!("{name} certificate schema-valid")),
        Err(e) => gate.expect(false, &format!("{name} certificate schema-valid: {e}")),
    }
    let path = out_dir.join(file);
    match std::fs::write(&path, &text) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => gate.expect(false, &format!("write {}: {e}", path.display())),
    }
}

fn foil_gate(gate: &mut Gate, out_dir: &Path) {
    println!("[4/5] foils must be caught, with certificates");
    let p = params();
    let t = SimTime::from_ticks;
    let pid = ProcessId::new;

    // Local-first: responds from local state before agreement — even a
    // register with one writer and one later reader is broken.
    check_foil(
        gate,
        out_dir,
        "local_first_register.json",
        "register",
        "local-first",
        &RwRegister::<i64>::default(),
        || LocalFirstReplica::group(RwRegister::<i64>::default(), p.n()),
        &p,
        &[
            // The write's local-first ack completes before t = 100, but
            // gossip needs at least d − u = 6600 ticks: the read must
            // observe the write yet can only see local state.
            (pid(0), t(0), RegOp::Write(1)),
            (pid(1), t(100), RegOp::Read),
        ],
        probes::register_states(),
    );

    // Eager Algorithm 1 with halved timer waits: responds before the
    // delivery horizon, so a corner schedule reorders a dequeue past the
    // enqueue it should observe.
    check_foil(
        gate,
        out_dir,
        "eager_queue.json",
        "queue",
        "eager-timers",
        &Queue::<i64>::new(),
        || eager_group(Queue::<i64>::new(), &p, 1, 2),
        &p,
        &[
            (pid(2), t(0), QueueOp::Enqueue(7)),
            (pid(0), t(40_000), QueueOp::Dequeue),
            (pid(1), t(40_500), QueueOp::Dequeue),
        ],
        probes::queue_states(),
    );
}

/// Runs one honest Algorithm 1 register scenario (write at 0, read at
/// 30 000 ticks, maximal fixed delays, zero skew) with a JSON-lines
/// sink attached, returning the engine report and the trace text.
fn honest_register_trace() -> (SimReport, String) {
    let p = params();
    let shared = SharedJsonLinesSink::new();
    let mut sim = Simulation::new(
        Replica::group(RmwRegister::default(), &p),
        ClockAssignment::zero(p.n()),
        FixedDelay::maximal(p.delay_bounds()),
    );
    sim.set_trace_sink(Box::new(shared.clone()));
    sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, RmwOp::Write(1));
    sim.schedule_invoke(ProcessId::new(1), SimTime::from_ticks(30_000), RmwOp::Read);
    let report = sim.run().expect("honest register run completes");
    (report, shared.text())
}

/// One synthesized foil trace per audit rule: the code the audit must
/// emit, a short label, and the JSON lines.
fn audit_foils() -> Vec<(&'static str, &'static str, String)> {
    let fifo = concat!(
        "{\"kind\":\"send\",\"at\":0,\"clock\":0,\"pid\":0,\"to\":1,\"msg\":0,\"payload\":\"a\"}\n",
        "{\"kind\":\"send\",\"at\":10,\"clock\":10,\"pid\":0,\"to\":1,\"msg\":1,\"payload\":\"b\"}\n",
        "{\"kind\":\"deliver\",\"at\":6700,\"clock\":6700,\"pid\":1,\"from\":0,\"msg\":1}\n",
        "{\"kind\":\"deliver\",\"at\":9000,\"clock\":9000,\"pid\":1,\"from\":0,\"msg\":0}\n",
    );
    vec![
        (
            "SB101",
            "delivery outside [d-u, d]",
            concat!(
                "{\"kind\":\"send\",\"at\":0,\"clock\":0,\"pid\":0,\"to\":1,\"msg\":0,\"payload\":\"m\"}\n",
                "{\"kind\":\"deliver\",\"at\":500,\"clock\":500,\"pid\":1,\"from\":0,\"msg\":0}\n",
            )
            .to_owned(),
        ),
        (
            "SB102",
            "orphan deliver + undelivered send",
            concat!(
                "{\"kind\":\"deliver\",\"at\":100,\"clock\":100,\"pid\":1,\"from\":0,\"msg\":5}\n",
                "{\"kind\":\"send\",\"at\":200,\"clock\":200,\"pid\":0,\"to\":1,\"msg\":6,\"payload\":\"m\"}\n",
            )
            .to_owned(),
        ),
        ("SB103", "per-channel FIFO inversion", fifo.to_owned()),
        (
            "SB104",
            "timer set but never fired",
            concat!(
                "{\"kind\":\"timer-set\",\"at\":0,\"clock\":0,\"pid\":0,",
                "\"timer\":1,\"tag\":\"hold\",\"delay\":9000}\n",
            )
            .to_owned(),
        ),
        (
            "SB105",
            "engine counted live payload slots",
            concat!(
                "{\"kind\":\"counter\",\"stage\":\"engine\",",
                "\"name\":\"leaked_payloads\",\"value\":3}\n",
            )
            .to_owned(),
        ),
    ]
}

/// Gate 5: the happens-before trace audit. The honest traced run must
/// audit clean under the declared window; each synthesized foil trace
/// must trip its rule. The honest trace is written next to the report
/// so CI can re-audit it through the `audit` subcommand.
fn audit_gate(
    gate: &mut Gate,
    header: &str,
    out_dir: &Path,
    trace_text: &str,
    report: &mut Report,
) {
    println!("{header} happens-before trace audit");
    let p = params();
    let cfg = AuditConfig {
        window: Some((
            i64::try_from(p.d().as_ticks()).expect("d fits"),
            i64::try_from(p.u().as_ticks()).expect("u fits"),
        )),
    };
    match audit_text(trace_text, &cfg) {
        Ok((honest, summary)) => {
            println!(
                "  honest register trace: {} events, {} processes, {} message(s) matched",
                summary.events, summary.processes, summary.matched_messages
            );
            for d in &honest.diagnostics {
                println!("    {d}");
            }
            gate.expect(
                honest.is_clean(),
                "honest register trace audits clean (window, matching, FIFO, timers)",
            );
            report.diagnostics.extend(honest.diagnostics);
        }
        Err(e) => gate.expect(false, &format!("honest trace parses: {e}")),
    }
    let trace_path = out_dir.join("honest.trace.jsonl");
    match std::fs::write(&trace_path, trace_text) {
        Ok(()) => println!("  wrote {}", trace_path.display()),
        Err(e) => gate.expect(false, &format!("write {}: {e}", trace_path.display())),
    }

    for (code, what, trace) in audit_foils() {
        match audit_text(&trace, &cfg) {
            Ok((foil, _)) => {
                let caught = foil.has_code(code);
                report.add_canary(code, caught);
                gate.expect(caught, &format!("{code} audit foil caught ({what})"));
            }
            Err(e) => {
                report.add_canary(code, false);
                gate.expect(false, &format!("{code} audit foil parses: {e}"));
            }
        }
    }
}

/// Serializes the combined rule report, re-validates it against the
/// `skewbound-lint-report/v1` schema, and writes it to `report.json`.
fn write_report(gate: &mut Gate, out_dir: &Path, report: &Report) {
    let text = report.to_json();
    match validate_report(&text) {
        Ok(()) => gate.expect(true, "report.json schema-valid"),
        Err(e) => gate.expect(false, &format!("report.json schema-valid: {e}")),
    }
    gate.expect(
        report.canaries.iter().all(|c| c.caught),
        &format!("all {} canaries caught", report.canaries.len()),
    );
    let path = out_dir.join("report.json");
    match std::fs::write(&path, &text) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => gate.expect(false, &format!("write {}: {e}", path.display())),
    }
}

/// Replays the register/local-first foil's minimized counterexample
/// with a JSON-lines sink attached, writes the trace to `trace_path`,
/// and cross-checks it against the certificate coordinates: every
/// message's `deliver.at − send.at` must equal the certificate's
/// `delay_ticks` entry for that message (both are indexed by global
/// send order).
fn trace_gate(gate: &mut Gate, trace_path: &Path) {
    println!("[trace] foil replay trace (register/local-first)");
    let p = params();
    let t = SimTime::from_ticks;
    let pid = ProcessId::new;
    let spec = RwRegister::<i64>::default();
    let make_actors = || LocalFirstReplica::group(RwRegister::<i64>::default(), p.n());
    let script = [
        (pid(0), t(0), RegOp::Write(1)),
        (pid(1), t(100), RegOp::Read),
    ];
    let mut config = McConfig::corners(&p, probes::register_states());
    config.stop_at_first_violation = true;
    let report = model_check(&spec, make_actors, &p, &script, &config);
    let Some(violation) = report.violations.first() else {
        gate.expect(false, "trace foil violation found");
        return;
    };
    let (min, steps) = minimize_counted(&spec, &make_actors, &p, &script, &config, violation);
    let shared = SharedJsonLinesSink::new();
    let (outcome, _) = replay_traced(
        &spec,
        &make_actors,
        &p,
        &script,
        &config,
        min.clock_idx,
        &min.delay_digits,
        &min.choices,
        Box::new(shared.clone()),
    );
    gate.expect(
        matches!(&outcome.verdict, RunVerdict::Violation(k) if k.same_kind(&min.kind)),
        "traced replay reproduces the violation",
    );
    let mut handle = shared.clone();
    handle.counter("mc", "schedules", report.schedules);
    handle.counter("mc", "pruned", report.pruned);
    handle.counter("mc", "delta_debug_steps", steps);

    let text = shared.text();
    if let Err(e) = std::fs::write(trace_path, &text) {
        gate.expect(false, &format!("write {}: {e}", trace_path.display()));
        return;
    }
    println!("  wrote {}", trace_path.display());

    // Validate by re-reading what was written, not the in-memory copy.
    let on_disk = match std::fs::read_to_string(trace_path) {
        Ok(s) => s,
        Err(e) => {
            gate.expect(false, &format!("read back {}: {e}", trace_path.display()));
            return;
        }
    };
    let values = match parse_lines(&on_disk) {
        Ok(v) => v,
        Err(e) => {
            gate.expect(false, &format!("trace parses as JSON lines: {e}"));
            return;
        }
    };
    println!("  trace: {} lines parsed OK", values.len());
    gate.expect(!values.is_empty(), "trace parses as JSON lines");

    let field = |v: &skewbound_mc::json::Json, k: &str| v.get(k).and_then(|f| f.as_num());
    let kind_of =
        |v: &skewbound_mc::json::Json| v.get("kind").and_then(|k| k.as_str()).map(str::to_owned);
    let mut send_at = std::collections::BTreeMap::new();
    let mut deliver_at = std::collections::BTreeMap::new();
    for v in &values {
        match kind_of(v).as_deref() {
            Some("send") => {
                send_at.insert(field(v, "msg"), field(v, "at"));
            }
            Some("deliver") => {
                deliver_at.insert(field(v, "msg"), field(v, "at"));
            }
            _ => {}
        }
    }
    let delay_ticks: Vec<i64> = min
        .delay_digits
        .iter()
        .map(|&d| i64::try_from(config.delay_choices[d].as_ticks()).expect("ticks fit"))
        .collect();
    gate.expect(
        send_at.len() == delay_ticks.len(),
        &format!(
            "trace has one send per certificate delay ({} = {})",
            send_at.len(),
            delay_ticks.len()
        ),
    );
    let consistent = (0..delay_ticks.len()).all(|i| {
        let msg = Some(i64::try_from(i).expect("msg id fits"));
        match (send_at.get(&msg), deliver_at.get(&msg)) {
            (Some(Some(sent)), Some(Some(recv))) => recv - sent == delay_ticks[i],
            _ => false,
        }
    });
    gate.expect(
        consistent,
        "trace delivery delays match certificate delay_ticks",
    );
}

fn finish(gate: &Gate) -> ExitCode {
    if gate.failures == 0 {
        println!("skewlint: OK");
        ExitCode::SUCCESS
    } else {
        println!("skewlint: {} expectation(s) failed", gate.failures);
        ExitCode::FAILURE
    }
}

/// `skewlint rules [--out DIR]`: only the rule registry and trace-audit
/// gates, writing `report.json` and `honest.trace.jsonl`.
fn rules_command(mut args: std::env::Args) -> ExitCode {
    let mut out_dir = PathBuf::from("target/skewlint");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                let Some(dir) = args.next() else {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                };
                out_dir = PathBuf::from(dir);
            }
            other => {
                eprintln!("unknown argument {other:?} (usage: skewlint rules [--out DIR])");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut gate = Gate { failures: 0 };
    let (sim_report, trace_text) = honest_register_trace();
    let mut report = rules_gate(&mut gate, "[1/2]", sim_report.leaked_payloads);
    audit_gate(&mut gate, "[2/2]", &out_dir, &trace_text, &mut report);
    write_report(&mut gate, &out_dir, &report);
    finish(&gate)
}

/// `skewlint audit FILE [--window D,U]`: audit an arbitrary JSON-lines
/// trace. Prints diagnostics and a summary; exits zero iff there are no
/// error-severity findings.
fn audit_command(mut args: std::env::Args) -> ExitCode {
    let mut file: Option<PathBuf> = None;
    let mut window: Option<(i64, i64)> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--window" => {
                let Some(spec) = args.next() else {
                    eprintln!("--window needs D,U (ticks)");
                    return ExitCode::FAILURE;
                };
                let parts: Vec<_> = spec.split(',').collect();
                let parsed = match parts.as_slice() {
                    [d, u] => d
                        .trim()
                        .parse::<i64>()
                        .ok()
                        .zip(u.trim().parse::<i64>().ok()),
                    _ => None,
                };
                let Some((d, u)) = parsed else {
                    eprintln!("--window needs D,U (ticks), got {spec:?}");
                    return ExitCode::FAILURE;
                };
                window = Some((d, u));
            }
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument {other:?} (usage: skewlint audit FILE [--window D,U])");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(file) = file else {
        eprintln!("usage: skewlint audit FILE [--window D,U]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    };
    match audit_text(&text, &AuditConfig { window }) {
        Ok((report, summary)) => {
            for d in &report.diagnostics {
                println!("{d}");
            }
            println!(
                "audit: {} events, {} processes, {} message(s) matched, \
                 {} error(s), {} warning(s)",
                summary.events,
                summary.processes,
                summary.matched_messages,
                report.errors(),
                report.warnings()
            );
            if report.errors() == 0 {
                println!("audit: OK");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("audit: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let mut smoke = false;
    let mut out_dir = PathBuf::from("target/skewlint");
    let mut trace_path: Option<PathBuf> = None;
    let mut first = true;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "rules" if first => return rules_command(args),
            "audit" if first => return audit_command(args),
            "--smoke" => smoke = true,
            "--out" => {
                let Some(dir) = args.next() else {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                };
                out_dir = PathBuf::from(dir);
            }
            "--trace" => {
                let Some(path) = args.next() else {
                    eprintln!("--trace needs a file path");
                    return ExitCode::FAILURE;
                };
                trace_path = Some(PathBuf::from(path));
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} \
                     (usage: skewlint [--smoke] [--out DIR] [--trace FILE] \
                     | skewlint rules [--out DIR] \
                     | skewlint audit FILE [--window D,U])"
                );
                return ExitCode::FAILURE;
            }
        }
        first = false;
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let mut gate = Gate { failures: 0 };
    lint_gate(&mut gate);
    let (sim_report, trace_text) = honest_register_trace();
    let mut report = rules_gate(&mut gate, "[2/5]", sim_report.leaked_payloads);
    report.explored_states_per_sec = Some(honest_gate(&mut gate, smoke));
    foil_gate(&mut gate, &out_dir);
    audit_gate(&mut gate, "[5/5]", &out_dir, &trace_text, &mut report);
    write_report(&mut gate, &out_dir, &report);
    if let Some(trace_path) = &trace_path {
        trace_gate(&mut gate, trace_path);
    }
    finish(&gate)
}
