//! Thread-count determinism and resumability of the parallel model
//! checker: the work-stealing frontier must produce bit-identical
//! reports, certificates and fringes at 1, 2 and 8 workers; a fringe
//! serialized at a schedule budget and resumed must land on the same
//! final report as an uninterrupted run; and the grid-arithmetic panics
//! of the sequential explorer (u64 overflow on wide delay grids,
//! process-aborting send-order divergence) must now surface as `capped`
//! reports and structured violations.

use skewbound_core::foils::LocalFirstReplica;
use skewbound_core::replica::Replica;
use skewbound_integration::default_params;
use skewbound_mc::{
    certify, model_check, model_check_resumable, validate_certificate, Fringe, McConfig, McReport,
    ModelActor, ViolationKind,
};
use skewbound_sim::actor::{Actor, Context};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimTime;
use skewbound_spec::prelude::*;
use skewbound_spec::probes;

fn pid(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn t(ticks: u64) -> SimTime {
    SimTime::from_ticks(ticks)
}

fn register_script() -> Vec<(ProcessId, SimTime, RmwOp)> {
    vec![
        (pid(0), t(0), RmwOp::Write(1)),
        (pid(1), t(0), RmwOp::Write(2)),
        (pid(2), t(40_000), RmwOp::Read),
    ]
}

fn register_report(workers: Option<usize>, max_schedules: u64) -> (McReport, Option<Fringe>) {
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::register_states());
    config.clock_choices.truncate(3);
    config.workers = workers;
    config.max_schedules = max_schedules;
    model_check_resumable(
        &RmwRegister::default(),
        &|| Replica::group(RmwRegister::default(), &p),
        &p,
        &register_script(),
        &config,
        None,
    )
}

/// The honest register explored at 1, 2 and 8 workers: every
/// deterministic report field must match the single-threaded run
/// exactly.
#[test]
fn thread_counts_produce_identical_reports() {
    let (baseline, fringe) = register_report(Some(1), 1_000_000);
    assert!(
        baseline.all_passed(),
        "violations: {:?}",
        baseline.violations
    );
    assert!(fringe.is_none(), "uncapped run has no fringe");
    assert!(baseline.explored_states > 0, "events are counted");
    for workers in [2, 8] {
        let (report, fringe) = register_report(Some(workers), 1_000_000);
        assert!(
            report.same_results(&baseline),
            "workers={workers} diverged:\n  {report:?}\nvs baseline\n  {baseline:?}"
        );
        assert!(fringe.is_none());
        assert_eq!(report.workers, workers, "advisory worker count is recorded");
    }
}

/// The local-first register foil certified at 1, 2 and 8 workers: the
/// emitted `skewbound-certificate/v1` JSON must be byte-identical, i.e.
/// every worker count finds the same lexicographically-least violating
/// coordinate.
#[test]
fn foil_certificates_are_byte_identical_across_workers() {
    let p = default_params();
    let script = [
        (pid(0), t(0), RegOp::Write(1)),
        (pid(1), t(100), RegOp::Read),
    ];
    let mut texts = Vec::new();
    for workers in [1usize, 2, 8] {
        let mut config = McConfig::corners(&p, probes::register_states());
        config.stop_at_first_violation = true;
        config.workers = Some(workers);
        let make = || LocalFirstReplica::group(RwRegister::<i64>::default(), p.n());
        let report = model_check(&RwRegister::<i64>::default(), make, &p, &script, &config);
        let violation = report
            .violations
            .first()
            .unwrap_or_else(|| panic!("workers={workers}: foil not caught"));
        let cert = certify(
            &RwRegister::<i64>::default(),
            &make,
            &p,
            &script,
            &config,
            violation,
            "register",
            "local-first",
            &report,
        );
        let text = cert.to_json();
        validate_certificate(&text).expect("certificate is schema-valid");
        texts.push((workers, text));
    }
    let (_, baseline) = &texts[0];
    for (workers, text) in &texts[1..] {
        assert_eq!(
            text, baseline,
            "workers={workers} produced a different certificate"
        );
    }
}

/// A capped exploration must cut at the same canonical coordinate at
/// every worker count: identical reports *and* bit-identical serialized
/// fringes.
#[test]
fn capped_exploration_is_deterministic_across_threads() {
    let (baseline, base_fringe) = register_report(Some(1), 37);
    assert!(
        baseline.capped,
        "37 schedules cannot finish the register grid"
    );
    let base_fringe = base_fringe.expect("capped run yields a fringe").to_json();
    for workers in [2, 8] {
        let (report, fringe) = register_report(Some(workers), 37);
        assert!(report.same_results(&baseline), "workers={workers} diverged");
        let fringe = fringe.expect("capped run yields a fringe").to_json();
        assert_eq!(fringe, base_fringe, "workers={workers} fringe diverged");
    }
}

/// Serialize the fringe at a tight budget, round-trip it through JSON,
/// resume (twice) with the budget raised: the final report must equal an
/// uninterrupted run with the same total budget.
#[test]
fn fringe_round_trip_resumes_to_identical_report() {
    let (uninterrupted, none) = register_report(Some(2), 1_000_000);
    assert!(none.is_none());

    let (first, fringe) = register_report(Some(2), 25);
    assert!(first.capped);
    let fringe = fringe.expect("capped run yields a fringe");
    assert_eq!(fringe.schedules_done(), 25);

    // JSON round-trip.
    let restored = Fringe::parse(&fringe.to_json()).expect("fringe round-trips");
    assert_eq!(restored, fringe);

    // Step the budget to an intermediate cut, then to completion.
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::register_states());
    config.clock_choices.truncate(3);
    config.workers = Some(2);
    config.max_schedules = 60;
    let spec = RmwRegister::default();
    let make = || Replica::group(RmwRegister::default(), &p);
    let script = register_script();
    let (mid, mid_fringe) =
        model_check_resumable(&spec, &make, &p, &script, &config, Some(&restored));
    assert!(mid.capped);
    assert_eq!(mid.schedules, 60, "cumulative budget counts resumed work");
    let mid_fringe = mid_fringe.expect("still capped at 60");

    config.max_schedules = 1_000_000;
    let (done, no_fringe) =
        model_check_resumable(&spec, &make, &p, &script, &config, Some(&mid_fringe));
    assert!(no_fringe.is_none(), "completed resume has no fringe");
    assert!(
        done.same_results(&uninterrupted),
        "resumed final report diverged:\n  {done:?}\nvs uninterrupted\n  {uninterrupted:?}"
    );
}

/// Fringe plans index the alternative lists of the explorer that wrote
/// them; a `v1` fringe comes from the sleep-set-only explorer, whose
/// lists were longer, so resuming it would explore the wrong subtrees.
/// It must be refused with the typed parse error.
#[test]
fn v1_fringe_is_rejected() {
    let (_, fringe) = register_report(Some(1), 25);
    let text = fringe.expect("capped run yields a fringe").to_json();
    assert!(text.contains("\"skewbound-fringe/v2\""), "{text}");
    let old = text.replace("skewbound-fringe/v2", "skewbound-fringe/v1");
    let err = Fringe::parse(&old).expect_err("a v1 fringe must not parse");
    assert!(err.contains("skewbound-fringe/v1"), "{err}");
    assert!(err.contains("expected \"skewbound-fringe/v2\""), "{err}");
}

/// 2 delay choices × 64 messages used to overflow the `u64` cell count
/// and panic (`expect("delay grid exceeds u64")`). The lazy mixed-radix
/// counter must instead explore up to the schedule budget and report
/// `capped`.
#[test]
fn wide_delay_grid_caps_instead_of_panicking() {
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::register_states());
    config.clock_choices.truncate(1);
    config.workers = Some(2);
    config.max_schedules = 40;
    // 32 staggered writes at n = 3: each write broadcasts to the other
    // two replicas, so one run sends 64 messages — a 2^64-cell grid.
    let script: Vec<(ProcessId, SimTime, RmwOp)> = (0..32)
        .map(|i| {
            (
                pid(i % 3),
                t(u64::from(i) * 2_000),
                RmwOp::Write(i64::from(i)),
            )
        })
        .collect();
    let (report, fringe) = model_check_resumable(
        &RmwRegister::default(),
        &|| Replica::group(RmwRegister::default(), &p),
        &p,
        &script,
        &config,
        None,
    );
    assert_eq!(report.messages, 64, "32 broadcasts to 2 peers each");
    assert!(report.capped, "2^64 cells cannot finish in 40 schedules");
    assert_eq!(report.schedules, 40);
    let fringe = fringe.expect("capped run yields a fringe");
    let restored = Fringe::parse(&fringe.to_json()).expect("wide fringe round-trips");
    assert_eq!(restored, fringe);
}

/// An implementation whose send *order* depends on delays (p1 relays
/// p0's message to p2, racing a scripted broadcast from p2 — lifted from
/// `skewbound_shift::exhaustive`'s divergence test). The old explorer
/// aborted the process; it must now return a report carrying a single
/// `SendOrderDivergence` violation.
#[derive(Debug, Default)]
struct Relay;

impl Actor for Relay {
    type Msg = u8;
    type Op = u8;
    type Resp = u8;
    type Timer = ();

    fn on_invoke(&mut self, op: u8, ctx: &mut Context<'_, Self>) {
        match op {
            0 => ctx.send(ProcessId::new(1), 0),
            _ => ctx.broadcast(1),
        }
        ctx.respond(op);
    }

    fn on_message(&mut self, _from: ProcessId, msg: u8, ctx: &mut Context<'_, Self>) {
        if msg == 0 && ctx.pid() == ProcessId::new(1) {
            ctx.send(ProcessId::new(2), 2);
        }
    }

    fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
}

/// A permissive spec for [`Relay`]: any byte op echoes itself.
#[derive(Debug, Clone, Default)]
struct EchoSpec;

impl SequentialSpec for EchoSpec {
    type State = ();
    type Op = u8;
    type Resp = u8;

    fn initial(&self) -> Self::State {}

    fn apply(&self, (): &Self::State, op: &u8) -> (Self::State, u8) {
        ((), *op)
    }

    fn class(&self, _op: &u8) -> OpClass {
        OpClass::PureMutator
    }
}

impl ModelActor for Relay {
    type Spec = EchoSpec;

    fn payload_op(_msg: &u8) -> Option<&u8> {
        None
    }
}

#[test]
fn send_order_divergence_is_reported_not_panicked() {
    let p = default_params();
    let config = McConfig::corners(&p, vec![()]);
    // Under minimal delays (d − u = 6600) the relay's second-hop send
    // happens before p2's scripted broadcast at t = 8000; under maximal
    // delays (d = 9000) it happens after: the global send order
    // diverges.
    let script = [(pid(0), t(0), 0u8), (pid(2), t(8_000), 1u8)];
    let report = model_check(
        &EchoSpec,
        || vec![Relay, Relay, Relay],
        &p,
        &script,
        &config,
    );
    assert!(!report.all_passed());
    assert_eq!(report.schedules, 0, "no cell exploration under divergence");
    assert_eq!(report.violations.len(), 1);
    let violation = &report.violations[0];
    assert_eq!(violation.kind.label(), "send-order-divergence");
    assert!(
        matches!(&violation.kind, ViolationKind::SendOrderDivergence { detail }
            if detail.contains("send")),
        "diagnostic names the diverging send: {:?}",
        violation.kind
    );
}
