//! The static rule framework: a [`Rule`] trait, a [`Registry`], and the
//! spec-level rules `SB001`–`SB005` plus the payload-leak rule `SB105`.
//!
//! Static rules run against the finite probe sets of
//! [`skewbound_spec::probes`]: each rule captures a specification, its
//! probe states/ops, and a target label, and emits [`Diagnostic`]s with
//! stable codes from the [`crate::diag::catalog`]. Rules are *checked by
//! foils*, not trusted — the `skewlint` binary seeds a violating spec
//! per rule and requires the diagnostic to fire (the canary entries of
//! the report), so a rule that rots into a no-op fails the gate.

use core::fmt;

use skewbound_core::invariants::routing_lint;
use skewbound_core::timestamp::Timestamp;
use skewbound_sim::engine::SimReport;
use skewbound_spec::classify::immediately_non_commuting;
use skewbound_spec::namespace::NsOp;
use skewbound_spec::seqspec::SequentialSpec;

use crate::diag::{Diagnostic, Report};

/// A lint rule: a bound check that appends findings to `out`.
///
/// Implementations carry everything they need (spec, probe sets, target
/// label) so a [`Registry`] can run them uniformly.
pub trait Rule {
    /// The stable catalog code this rule emits (`"SB001"`, …).
    fn code(&self) -> &'static str;
    /// The label of the analyzed artifact, used in diagnostics.
    fn target(&self) -> &str;
    /// Runs the check, appending any findings.
    fn check(&self, out: &mut Vec<Diagnostic>);
}

/// An ordered collection of rules that runs them all and produces a
/// [`Report`].
#[derive(Default)]
pub struct Registry {
    rules: Vec<Box<dyn Rule>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries: Vec<String> = self
            .rules
            .iter()
            .map(|r| format!("{}({})", r.code(), r.target()))
            .collect();
        f.debug_struct("Registry").field("rules", &entries).finish()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Appends a rule; rules run in registration order.
    pub fn register(&mut self, rule: Box<dyn Rule>) {
        self.rules.push(rule);
    }

    /// Number of registered rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Runs every rule and collects the findings into a report.
    #[must_use]
    pub fn run(&self) -> Report {
        let mut diagnostics = Vec::new();
        for rule in &self.rules {
            rule.check(&mut diagnostics);
        }
        Report::new(diagnostics)
    }
}

/// `SB001` — routing consistency, ported from
/// [`skewbound_core::invariants::routing_lint`]: declared pure mutators
/// must have a mutator witness and no accessor witness, declared pure
/// accessors must not have a mutator witness.
#[derive(Debug)]
pub struct RoutingRule<S: SequentialSpec> {
    target: String,
    spec: S,
    states: Vec<S::State>,
    ops: Vec<S::Op>,
}

impl<S: SequentialSpec> RoutingRule<S> {
    /// Binds the rule to a spec and its probe sets.
    pub fn new(target: impl Into<String>, spec: S, states: Vec<S::State>, ops: Vec<S::Op>) -> Self {
        RoutingRule {
            target: target.into(),
            spec,
            states,
            ops,
        }
    }
}

impl<S: SequentialSpec> Rule for RoutingRule<S> {
    fn code(&self) -> &'static str {
        "SB001"
    }

    fn target(&self) -> &str {
        &self.target
    }

    fn check(&self, out: &mut Vec<Diagnostic>) {
        for v in routing_lint(&self.spec, &self.states, &self.ops) {
            if v.invariant == "routing-consistency" {
                out.push(Diagnostic::new("SB001", &self.target, v.detail));
            }
        }
    }
}

/// `SB002` — accessor purity (class consistency): on the probe set, a
/// declared [`PureAccessor`](skewbound_spec::seqspec::OpClass) must
/// never change the state, and a declared
/// [`PureMutator`](skewbound_spec::seqspec::OpClass)'s response must not
/// depend on it.
#[derive(Debug)]
pub struct AccessorPurityRule<S: SequentialSpec> {
    target: String,
    spec: S,
    states: Vec<S::State>,
    ops: Vec<S::Op>,
}

impl<S: SequentialSpec> AccessorPurityRule<S> {
    /// Binds the rule to a spec and its probe sets.
    pub fn new(target: impl Into<String>, spec: S, states: Vec<S::State>, ops: Vec<S::Op>) -> Self {
        AccessorPurityRule {
            target: target.into(),
            spec,
            states,
            ops,
        }
    }
}

impl<S: SequentialSpec> Rule for AccessorPurityRule<S> {
    fn code(&self) -> &'static str {
        "SB002"
    }

    fn target(&self) -> &str {
        &self.target
    }

    fn check(&self, out: &mut Vec<Diagnostic>) {
        for v in routing_lint(&self.spec, &self.states, &self.ops) {
            if v.invariant == "class-consistency" {
                out.push(Diagnostic::new("SB002", &self.target, v.detail));
            }
        }
    }
}

/// `SB003` — commutativity declarations
/// ([`SequentialSpec::declares_commuting`]) cross-checked against
/// classifier witnesses on the probe set:
///
/// * asymmetric declarations are an error;
/// * `Some(true)` with an immediate or eventual non-commuting witness is
///   an error (the declaration is a lie);
/// * `Some(false)` with no witness at all is a warning (the probe set
///   cannot confirm the claimed conflict).
#[derive(Debug)]
pub struct CommutativityRule<S: SequentialSpec> {
    target: String,
    spec: S,
    states: Vec<S::State>,
    ops: Vec<S::Op>,
}

impl<S: SequentialSpec> CommutativityRule<S> {
    /// Binds the rule to a spec and its probe sets.
    pub fn new(target: impl Into<String>, spec: S, states: Vec<S::State>, ops: Vec<S::Op>) -> Self {
        CommutativityRule {
            target: target.into(),
            spec,
            states,
            ops,
        }
    }

    /// True when the probe set distinguishes the two orders of `a`, `b`:
    /// either some response differs (immediate witness) or some final
    /// state does (eventual witness).
    fn has_witness(&self, a: &S::Op, b: &S::Op) -> bool {
        if immediately_non_commuting(
            &self.spec,
            &self.states,
            core::slice::from_ref(a),
            core::slice::from_ref(b),
        )
        .is_some()
        {
            return true;
        }
        self.states.iter().any(|s| {
            !self
                .spec
                .equivalent_after(s, &[a.clone(), b.clone()], &[b.clone(), a.clone()])
        })
    }
}

impl<S: SequentialSpec> Rule for CommutativityRule<S> {
    fn code(&self) -> &'static str {
        "SB003"
    }

    fn target(&self) -> &str {
        &self.target
    }

    fn check(&self, out: &mut Vec<Diagnostic>) {
        for (i, a) in self.ops.iter().enumerate() {
            for b in &self.ops[i + 1..] {
                if a == b {
                    continue;
                }
                let declared = self.spec.declares_commuting(a, b);
                if declared != self.spec.declares_commuting(b, a) {
                    out.push(Diagnostic::new(
                        "SB003",
                        &self.target,
                        format!("asymmetric commutativity declaration for {a:?} and {b:?}"),
                    ));
                    continue;
                }
                let Some(claim) = declared else { continue };
                let witness = self.has_witness(a, b);
                if claim && witness {
                    out.push(Diagnostic::new(
                        "SB003",
                        &self.target,
                        format!(
                            "{a:?} and {b:?} are declared commuting but a probe state \
                             distinguishes the two orders"
                        ),
                    ));
                } else if !claim && !witness {
                    out.push(Diagnostic::warning(
                        "SB003",
                        &self.target,
                        format!(
                            "{a:?} and {b:?} are declared non-commuting but no probe \
                             witness distinguishes the orders"
                        ),
                    ));
                }
            }
        }
    }
}

/// `SB004` — batch-vs-sequential equivalence for namespace operations:
/// ops addressing *distinct* keys must be order-independent (same final
/// state, same per-op responses in both orders). This is exactly what
/// lets the sharded runtime apply a key-grouped batch without fixing an
/// inter-key order, and lets `lin::multi` check shards independently.
#[derive(Debug)]
pub struct NsBatchRule<S, O>
where
    S: SequentialSpec<Op = NsOp<O>>,
    O: Clone + Eq + core::hash::Hash + fmt::Debug,
{
    target: String,
    spec: S,
    states: Vec<S::State>,
    ops: Vec<NsOp<O>>,
}

impl<S, O> NsBatchRule<S, O>
where
    S: SequentialSpec<Op = NsOp<O>>,
    O: Clone + Eq + core::hash::Hash + fmt::Debug,
{
    /// Binds the rule to a namespace spec and its probe sets.
    pub fn new(
        target: impl Into<String>,
        spec: S,
        states: Vec<S::State>,
        ops: Vec<NsOp<O>>,
    ) -> Self {
        NsBatchRule {
            target: target.into(),
            spec,
            states,
            ops,
        }
    }
}

impl<S, O> Rule for NsBatchRule<S, O>
where
    S: SequentialSpec<Op = NsOp<O>>,
    O: Clone + Eq + core::hash::Hash + fmt::Debug,
{
    fn code(&self) -> &'static str {
        "SB004"
    }

    fn target(&self) -> &str {
        &self.target
    }

    fn check(&self, out: &mut Vec<Diagnostic>) {
        for state in &self.states {
            for (i, a) in self.ops.iter().enumerate() {
                for b in &self.ops[i + 1..] {
                    if a.key == b.key {
                        // Same object: a batch applies them in its
                        // own order, so order-dependence is fine.
                        continue;
                    }
                    let (s_ab, r_ab) = self.spec.run(state, &[a.clone(), b.clone()]);
                    let (s_ba, r_ba) = self.spec.run(state, &[b.clone(), a.clone()]);
                    if s_ab != s_ba || r_ab[0] != r_ba[1] || r_ab[1] != r_ba[0] {
                        out.push(Diagnostic::new(
                            "SB004",
                            &self.target,
                            format!(
                                "ops on distinct keys {} and {} are order-dependent from \
                                 state {state:?}: batched application is not equivalent \
                                 to the sequential orders ({a:?}, {b:?})",
                                a.key, b.key
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// `SB005` — executed-sequence discipline (Lemma C.10): the
/// timestamps a replica executed must be strictly ascending. A repeat
/// means one op ran twice or two ops shared a timestamp.
#[derive(Debug)]
pub struct TimestampSeqRule {
    target: String,
    order: Vec<Timestamp>,
}

impl TimestampSeqRule {
    /// Binds the rule to an executed timestamp order.
    pub fn new(target: impl Into<String>, order: Vec<Timestamp>) -> Self {
        TimestampSeqRule {
            target: target.into(),
            order,
        }
    }
}

impl Rule for TimestampSeqRule {
    fn code(&self) -> &'static str {
        "SB005"
    }

    fn target(&self) -> &str {
        &self.target
    }

    fn check(&self, out: &mut Vec<Diagnostic>) {
        for w in self.order.windows(2) {
            if w[0] >= w[1] {
                out.push(Diagnostic::new(
                    "SB005",
                    &self.target,
                    format!(
                        "executed timestamps are not strictly ascending: {} then {}",
                        w[0], w[1]
                    ),
                ));
            }
        }
    }
}

/// `SB105` — leaked slab payloads: a run must return every op, message,
/// batch, and timer payload slot to its slab by quiescence. This is the
/// lint-facing form of [`SimReport::leaked_payloads`] (the same check
/// the trace auditor applies to the `engine/leaked_payloads` counter).
#[derive(Debug)]
pub struct PayloadLeakRule {
    target: String,
    leaked: u64,
}

impl PayloadLeakRule {
    /// Binds the rule to an observed leak count.
    pub fn new(target: impl Into<String>, leaked: u64) -> Self {
        PayloadLeakRule {
            target: target.into(),
            leaked,
        }
    }

    /// Binds the rule to a finished run's report.
    pub fn from_report(target: impl Into<String>, report: &SimReport) -> Self {
        PayloadLeakRule::new(target, report.leaked_payloads)
    }
}

impl Rule for PayloadLeakRule {
    fn code(&self) -> &'static str {
        "SB105"
    }

    fn target(&self) -> &str {
        &self.target
    }

    fn check(&self, out: &mut Vec<Diagnostic>) {
        if self.leaked > 0 {
            out.push(Diagnostic::new(
                "SB105",
                &self.target,
                format!(
                    "{} payload slab slot(s) still live at quiescence",
                    self.leaked
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use skewbound_sim::ids::ProcessId;
    use skewbound_sim::time::ClockTime;
    use skewbound_spec::namespace::Namespace;
    use skewbound_spec::prelude::*;
    use skewbound_spec::probes;

    use super::*;

    fn ts(time: i64, pid: u32) -> Timestamp {
        Timestamp::new(ClockTime::from_ticks(time), ProcessId::new(pid))
    }

    /// A register that routes `Read` as a pure mutator: the classic
    /// misdeclaration `routing_lint` exists to catch.
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

    /// A counter that lies about commutativity in both directions:
    /// claims Add/Read commute (they do not) and denies Add/Add
    /// commuting (they do).
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

    /// A namespace whose keys are *not* independent: writing key 7 also
    /// clobbers key 40. Batch application over distinct keys is then
    /// order-dependent.
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

    #[test]
    fn honest_specs_are_clean() {
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
            "order",
            vec![ts(1, 0), ts(2, 0), ts(2, 1), ts(3, 0)],
        )));
        reg.register(Box::new(PayloadLeakRule::new("run", 0)));
        assert_eq!(reg.len(), 6);
        let report = reg.run();
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn misrouted_register_trips_sb001_and_sb002() {
        let mut reg = Registry::new();
        reg.register(Box::new(RoutingRule::new(
            "misrouted",
            MisroutedRegister,
            probes::register_states(),
            probes::register_ops(),
        )));
        reg.register(Box::new(AccessorPurityRule::new(
            "misrouted",
            MisroutedRegister,
            probes::register_states(),
            probes::register_ops(),
        )));
        let report = reg.run();
        assert!(report.has_code("SB001"), "{:?}", report.diagnostics);
        assert!(report.has_code("SB002"), "{:?}", report.diagnostics);
    }

    #[test]
    fn lying_declarations_trip_sb003_both_ways() {
        let rule = CommutativityRule::new(
            "liar",
            DeclLiarCounter,
            probes::counter_states(),
            probes::counter_ops(),
        );
        let mut out = Vec::new();
        rule.check(&mut out);
        // Add/Read declared commuting → error; Add/Add declared
        // non-commuting with no witness → warning.
        assert!(
            out.iter()
                .any(|d| d.severity == crate::diag::Severity::Error),
            "{out:?}"
        );
        assert!(
            out.iter()
                .any(|d| d.severity == crate::diag::Severity::Warning),
            "{out:?}"
        );
    }

    #[test]
    fn cross_talk_namespace_trips_sb004() {
        let rule = NsBatchRule::new(
            "cross-talk",
            CrossTalkNs,
            probes::ns_register_states(),
            probes::ns_register_ops(),
        );
        let mut out = Vec::new();
        rule.check(&mut out);
        assert!(out.iter().any(|d| d.code == "SB004"), "{out:?}");
    }

    #[test]
    fn seq_violations_trip_sb005() {
        // Descending timestamps.
        let rule = TimestampSeqRule::new("desc", vec![ts(2, 0), ts(1, 0)]);
        let mut out = Vec::new();
        rule.check(&mut out);
        assert!(out.iter().any(|d| d.code == "SB005"), "{out:?}");
        // One timestamp executed twice.
        let rule = TimestampSeqRule::new("repeat", vec![ts(5, 1), ts(5, 1)]);
        let mut out = Vec::new();
        rule.check(&mut out);
        assert!(out.iter().any(|d| d.code == "SB005"), "{out:?}");
    }

    #[test]
    fn leaks_trip_sb105() {
        let rule = PayloadLeakRule::new("leaky", 2);
        let mut out = Vec::new();
        rule.check(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "SB105");
    }
}
