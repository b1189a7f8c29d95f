//! # skewbound-lint
//!
//! A rule-based protocol analyzer with stable diagnostic codes and a
//! machine-readable report, plus an offline happens-before auditor for
//! the simulator's JSON-lines traces.
//!
//! The paper's bounds are conditional: Algorithm 1's `d + ε` accessor
//! bound holds only if accessors really are pure, its per-object
//! timestamp order only if the transport respects the `[d−u, d]`
//! window, and the sharded namespace only if distinct keys truly
//! commute. This crate turns each of those obligations into a *checked*
//! rule:
//!
//! * [`diag`] — the `SBxxx` code catalog, severities, and the
//!   `skewbound-lint-report/v1` JSON report with a re-validating
//!   parser;
//! * [`rules`] — the [`Rule`] trait, the [`Registry`], and the
//!   static spec rules
//!   `SB001`–`SB005` (routing, accessor purity, commutativity
//!   declarations, namespace batch equivalence, executed-timestamp
//!   order) plus the payload-leak rule `SB105`;
//! * [`audit`] — the offline trace auditor: vector-clock
//!   reconstruction over send/deliver/invoke/respond/timer records and
//!   the trace rules `SB101`–`SB105` (delivery window, send/deliver
//!   matching, per-channel FIFO, timer discipline, payload leaks);
//! * [`json`] — the self-contained JSON value/parser the offline
//!   workspace uses for all machine-readable artifacts.
//!
//! Every rule is kept honest by a seeded foil: the `skewlint` binary
//! (in `skewbound-mc`) runs a violating spec or trace per rule and
//! requires the diagnostic to fire, recording the outcome in the
//! report's canary list.
//!
//! ```
//! use skewbound_lint::rules::{Registry, RoutingRule};
//! use skewbound_spec::{prelude::*, probes};
//!
//! let mut registry = Registry::new();
//! registry.register(Box::new(RoutingRule::new(
//!     "register",
//!     RmwRegister::default(),
//!     probes::register_states(),
//!     probes::register_ops(),
//! )));
//! let report = registry.run();
//! assert!(report.is_clean());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod diag;
pub mod json;
pub mod rules;

pub use audit::{audit_events, audit_text, AuditConfig, AuditSummary, VectorClock};
pub use diag::{catalog, validate_report, Diagnostic, Report, RuleMeta, Severity, SCHEMA};
pub use rules::{Registry, Rule};
