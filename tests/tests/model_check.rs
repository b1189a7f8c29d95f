//! Full-stack exercises of the `skewbound-mc` model checker: honest
//! implementations survive complete small-scope exploration, foils are
//! caught with minimized replay-confirmed certificates, and the DPOR
//! reduction is measured against the naive interleaving baseline.

use skewbound_core::foils::{eager_group, LocalFirstReplica};
use skewbound_core::replica::Replica;
use skewbound_integration::default_params;
use skewbound_mc::{
    certify, model_check, validate_certificate, Independence, McConfig, ViolationKind,
};
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

/// Two concurrent writes and a later read: every delay corner, clock
/// corner and delivery order of the honest register must linearize and
/// satisfy the protocol invariants.
#[test]
fn honest_register_survives_full_exploration() {
    let p = default_params();
    let config = McConfig::corners(&p, probes::register_states());
    let script = [
        (pid(0), t(0), RmwOp::Write(1)),
        (pid(1), t(0), RmwOp::Write(2)),
        (pid(2), t(40_000), RmwOp::Read),
    ];
    let report = model_check(
        &RmwRegister::default(),
        || Replica::group(RmwRegister::default(), &p),
        &p,
        &script,
        &config,
    );
    assert!(report.all_passed(), "violations: {:?}", report.violations);
    assert!(
        report.schedules >= report.cells,
        "every cell runs at least once"
    );
    assert_eq!(
        report.messages, 4,
        "two mutators broadcast, the read is local"
    );
}

/// Batches are ops of the `Batch` spec, so the one Algorithm 1 runs
/// them: a pure-mutator batch racing a mixed (`OOP`) batch, then a
/// pure-accessor batch, must linearize at every corner.
#[test]
fn honest_batched_register_survives_full_exploration() {
    let p = default_params();
    let config = McConfig::corners(&p, probes::register_states());
    assert_eq!(config.clock_choices.len(), 7);
    let script = [
        (pid(0), t(0), vec![RmwOp::Write(1), RmwOp::Write(3)]),
        (
            pid(1),
            t(0),
            vec![RmwOp::Write(2), RmwOp::Rmw(RmwKind::FetchAdd(1))],
        ),
        (pid(2), t(40_000), vec![RmwOp::Read, RmwOp::Read]),
    ];
    let spec = Batch::new(RmwRegister::default());
    let report = model_check(
        &spec,
        || Replica::group(Batch::new(RmwRegister::default()), &p),
        &p,
        &script,
        &config,
    );
    assert!(report.all_passed(), "violations: {:?}", report.violations);
    assert_eq!(
        report.messages, 4,
        "one broadcast per mutating batch, the read batch is local"
    );
}

/// The DPOR schedule count must be strictly below the naive baseline on
/// a scenario with concurrent deliveries, and pruning must not change
/// the verdict.
#[test]
fn dpor_beats_naive_interleaving_and_agrees() {
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::queue_states());
    config.clock_choices.truncate(1); // zero skew: keep naive tractable
    let script = [
        (pid(0), t(0), QueueOp::Enqueue(1)),
        (pid(1), t(0), QueueOp::Enqueue(2)),
        (pid(2), t(40_000), QueueOp::Dequeue),
    ];
    let run = |independence, cap| {
        let mut c = config.clone();
        c.independence = independence;
        c.max_schedules = cap;
        model_check(
            &Queue::<i64>::new(),
            || Replica::group(Queue::<i64>::new(), &p),
            &p,
            &script,
            &c,
        )
    };
    let dpor = run(Independence::Dpor, 1_000_000);
    // Cap the naive baseline: full interleaving enumeration is the thing
    // DPOR exists to avoid, and a capped count is still a strict lower
    // bound on the naive schedule space.
    let naive = run(Independence::Naive, 20_000);
    assert!(dpor.all_passed(), "violations: {:?}", dpor.violations);
    assert!(
        naive.violations.is_empty() && naive.unknown == 0,
        "violations: {:?}",
        naive.violations
    );
    assert!(
        dpor.schedules < naive.schedules,
        "DPOR must explore strictly fewer schedules: {} vs {}",
        dpor.schedules,
        naive.schedules
    );
}

/// The local-first foil acknowledges writes before agreement; the
/// explorer must catch it and the certificate pipeline must produce a
/// minimized, schema-valid, replay-confirmed document.
#[test]
fn local_first_foil_yields_a_minimized_certificate() {
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::register_states());
    config.stop_at_first_violation = true;
    let script = [
        (pid(0), t(0), RegOp::Write(1)),
        (pid(1), t(100), RegOp::Read),
    ];
    let spec = RwRegister::<i64>::default();
    let make = || LocalFirstReplica::group(RwRegister::<i64>::default(), p.n());
    let report = model_check(&spec, make, &p, &script, &config);
    let violation = report.violations.first().expect("foil must be caught");
    assert_eq!(violation.kind, ViolationKind::NotLinearizable);

    let cert = certify(
        &spec,
        &make,
        &p,
        &script,
        &config,
        violation,
        "register",
        "local-first",
        &report,
    );
    assert!(cert.minimized);
    assert!(cert.replay_confirmed, "minimized coordinate must reproduce");
    assert!(
        cert.schedule_choices.is_empty(),
        "this foil fails under default scheduling; minimization must \
         discard every schedule choice, got {:?}",
        cert.schedule_choices
    );
    assert!(
        cert.delay_ticks.iter().all(|&d| d == p.d().as_ticks()),
        "minimization resets delays to the default d"
    );
    validate_certificate(&cert.to_json()).expect("certificate must satisfy its schema");
}

/// The eager-timer foil (Algorithm 1 with halved waits) responds before
/// the delivery horizon; the corner grid must expose it and the
/// certificate must validate.
#[test]
fn eager_timer_foil_is_caught_and_certified() {
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::queue_states());
    config.stop_at_first_violation = true;
    let script = [
        (pid(2), t(0), QueueOp::Enqueue(7)),
        (pid(0), t(40_000), QueueOp::Dequeue),
        (pid(1), t(40_500), QueueOp::Dequeue),
    ];
    let spec = Queue::<i64>::new();
    let make = || eager_group(Queue::<i64>::new(), &p, 1, 2);
    let report = model_check(&spec, make, &p, &script, &config);
    let violation = report.violations.first().expect("foil must be caught");

    let cert = certify(
        &spec,
        &make,
        &p,
        &script,
        &config,
        violation,
        "queue",
        "eager-timers",
        &report,
    );
    assert!(cert.replay_confirmed);
    let text = cert.to_json();
    validate_certificate(&text).expect("certificate must satisfy its schema");
    assert!(text.contains("\"schema\": \"skewbound-certificate/v1\""));
}
