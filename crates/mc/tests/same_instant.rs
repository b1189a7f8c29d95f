//! The same-time reduction assumes no activation enqueues an event at
//! its own instant. A zero message delay (the `d − u` corner with
//! `u = d`) or a zero-length timer breaks that assumption; the explorer
//! must then void the whole exploration with one `SameInstantEvent`
//! violation instead of reporting a pass over orders it skipped.

use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_mc::{model_check, replay, McConfig, McReport, ModelActor, RunVerdict};
use skewbound_sim::actor::{Actor, Context};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_spec::prelude::*;
use skewbound_spec::probes;

fn params(u: u64) -> Params {
    Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(u),
        SimDuration::ZERO,
    )
    .expect("valid parameters")
}

fn pid(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn t(ticks: u64) -> SimTime {
    SimTime::from_ticks(ticks)
}

/// Asserts `report` is voided by a single same-instant violation.
fn assert_voided(report: &McReport) {
    assert!(!report.all_passed());
    assert_eq!(report.schedules, 0, "a voided exploration counts nothing");
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    let kind = &report.violations[0].kind;
    assert_eq!(kind.label(), "same-instant-event");
    assert!(kind.voids_exploration());
}

/// Algorithm 1 at `u = d`: the corner delay `d − u` is zero, so a
/// broadcast is delivered at its send instant.
#[test]
fn zero_delay_corner_voids_the_exploration() {
    let p = params(9_000);
    let config = McConfig::corners(&p, probes::register_states());
    assert_eq!(config.delay_choices[0], SimDuration::ZERO);
    let script = [
        (pid(0), t(0), RmwOp::Write(1)),
        (pid(1), t(0), RmwOp::Write(2)),
        (pid(2), t(40_000), RmwOp::Read),
    ];
    let make = || Replica::group(RmwRegister::default(), &p);
    let report = model_check(&RmwRegister::default(), make, &p, &script, &config);
    assert_voided(&report);

    // The violation's coordinate replays to the same verdict.
    let v = &report.violations[0];
    let rerun = replay(
        &RmwRegister::default(),
        &make,
        &p,
        &script,
        &config,
        v.clock_idx,
        &v.delay_digits,
        &v.choices,
    );
    assert!(
        matches!(&rerun.verdict, RunVerdict::Violation(k) if *k == v.kind),
        "{:?}",
        rerun.verdict
    );
}

/// Responds after a timer of fixed length.
#[derive(Debug)]
struct Delayed(SimDuration);

impl Actor for Delayed {
    type Msg = ();
    type Op = RmwOp;
    type Resp = RmwResp;
    type Timer = RmwResp;

    fn on_invoke(&mut self, _op: RmwOp, ctx: &mut Context<'_, Self>) {
        ctx.set_timer(self.0, RmwResp::Ack);
    }

    fn on_message(&mut self, _from: ProcessId, (): (), _ctx: &mut Context<'_, Self>) {}

    fn on_timer(&mut self, resp: RmwResp, ctx: &mut Context<'_, Self>) {
        ctx.respond(resp);
    }
}

impl ModelActor for Delayed {
    type Spec = RmwRegister;

    fn payload_op((): &()) -> Option<&RmwOp> {
        None
    }
}

/// A zero-length timer fires at the instant it is armed; the same actor
/// with a one-tick timer explores cleanly.
#[test]
fn zero_length_timer_voids_the_exploration() {
    let p = params(2_400);
    let config = McConfig::corners(&p, probes::register_states());
    let script = [
        (pid(0), t(0), RmwOp::Write(1)),
        (pid(1), t(0), RmwOp::Write(1)),
    ];
    let run = |ticks| {
        let make = || {
            (0..3)
                .map(|_| Delayed(SimDuration::from_ticks(ticks)))
                .collect()
        };
        model_check(&RmwRegister::default(), make, &p, &script, &config)
    };
    assert_voided(&run(0));
    let report = run(1);
    assert!(report.all_passed(), "{:?}", report.violations);
    assert!(report.schedules > 0);
}
