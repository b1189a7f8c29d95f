//! Diagnostic codes, severities, and the machine-readable lint report.
//!
//! Every check in the analyzer — static spec rules ([`crate::rules`])
//! and trace-audit rules ([`crate::audit`]) — reports through a single
//! stable catalog of `SBxxx` codes. Codes are append-only: `SB0xx` is
//! the static range, `SB1xx` the trace-audit range, and a code is never
//! reused for a different meaning once shipped, so CI scripts and
//! downstream tooling can grep for them across versions.
//!
//! The report serializes to `skewbound-lint-report/v1` JSON (written to
//! `target/skewlint/report.json` by the `skewlint` binary) and is
//! re-validated by [`validate_report`] so a report that drifts from the
//! schema fails CI rather than silently degrading the greps.

use core::fmt;

use crate::json::{obj, parse, Json};

/// The report schema identifier embedded in every emitted report.
pub const SCHEMA: &str = "skewbound-lint-report/v1";

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not a soundness violation (e.g. a commutativity
    /// declaration the probe set cannot confirm, or message reordering
    /// that the delay model legitimately admits).
    Warning,
    /// A protocol-soundness violation: the paper's bounds or the
    /// simulator's invariants do not hold if this fires.
    Error,
}

impl Severity {
    /// The lowercase label used in reports and CLI output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Catalog entry for one rule: its stable code, short name, worst
/// severity it can emit, and a one-line summary of what it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMeta {
    /// Stable diagnostic code (`SB001`, `SB101`, …).
    pub code: &'static str,
    /// Kebab-case rule name.
    pub name: &'static str,
    /// The worst severity this rule emits.
    pub severity: Severity,
    /// One-line description of the property checked.
    pub summary: &'static str,
}

/// The full rule catalog, static and audit rules together. This is the
/// single source of truth for codes: [`Diagnostic::new`] refuses codes
/// that are not listed here.
#[must_use]
pub fn catalog() -> &'static [RuleMeta] {
    const CATALOG: [RuleMeta; 10] = [
        RuleMeta {
            code: "SB001",
            name: "routing-consistency",
            severity: Severity::Error,
            summary: "declared op classes match classifier witnesses: \
                      pure mutators mutate, pure accessors have witnesses consistent \
                      with their routing",
        },
        RuleMeta {
            code: "SB002",
            name: "accessor-purity",
            severity: Severity::Error,
            summary: "class declarations are internally consistent on the probe set: \
                      accessors never change probe state, mutator responses never \
                      depend on it",
        },
        RuleMeta {
            code: "SB003",
            name: "commutativity-declaration",
            severity: Severity::Error,
            summary: "declared commuting pairs have no non-commuting classifier \
                      witness (and declared non-commuting pairs have one)",
        },
        RuleMeta {
            code: "SB004",
            name: "ns-batch-equivalence",
            severity: Severity::Error,
            summary: "namespace ops on distinct keys are order-independent, so \
                      batched application equals every sequential order",
        },
        RuleMeta {
            code: "SB005",
            name: "timestamp-seq-discipline",
            severity: Severity::Error,
            summary: "executed timestamps are strictly ascending",
        },
        RuleMeta {
            code: "SB101",
            name: "delivery-window",
            severity: Severity::Error,
            summary: "every message delivery lands inside the declared \
                      [d\u{2212}u, d] window after its send",
        },
        RuleMeta {
            code: "SB102",
            name: "send-deliver-matching",
            severity: Severity::Error,
            summary: "sends and deliveries match one-to-one and respect \
                      happens-before (no delivery without, before, or twice \
                      per send)",
        },
        RuleMeta {
            code: "SB103",
            name: "channel-fifo",
            severity: Severity::Warning,
            summary: "per ordered (sender, receiver) channel, delivery order \
                      matches send order",
        },
        RuleMeta {
            code: "SB104",
            name: "timer-discipline",
            severity: Severity::Error,
            summary: "every timer set is eventually fired or cancelled, and \
                      fires/cancels refer to armed timers",
        },
        RuleMeta {
            code: "SB105",
            name: "payload-leak",
            severity: Severity::Error,
            summary: "no slab payload slots remain live at quiescence",
        },
    ];
    &CATALOG
}

/// Looks up a catalog entry by code.
#[must_use]
pub fn rule_meta(code: &str) -> Option<&'static RuleMeta> {
    catalog().iter().find(|m| m.code == code)
}

/// One finding: a catalog code plus what was analyzed and why it fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code from the catalog.
    pub code: &'static str,
    /// Severity of this particular finding (defaults to the catalog
    /// severity; rules may downgrade, never upgrade).
    pub severity: Severity,
    /// The rule's kebab-case name, denormalized for report readers.
    pub rule: &'static str,
    /// What was analyzed: a spec label (`"register"`) or a trace label.
    pub target: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at the rule's catalog severity.
    ///
    /// # Panics
    ///
    /// Panics if `code` is not in the [`catalog`] — rules may only emit
    /// codes that report consumers can look up.
    #[must_use]
    pub fn new(code: &str, target: impl Into<String>, message: impl Into<String>) -> Self {
        let meta = rule_meta(code).unwrap_or_else(|| panic!("unknown diagnostic code {code:?}"));
        Diagnostic {
            code: meta.code,
            severity: meta.severity,
            rule: meta.name,
            target: target.into(),
            message: message.into(),
        }
    }

    /// Same as [`Diagnostic::new`] but downgraded to [`Severity::Warning`].
    ///
    /// # Panics
    ///
    /// Panics if `code` is not in the [`catalog`].
    #[must_use]
    pub fn warning(code: &str, target: impl Into<String>, message: impl Into<String>) -> Self {
        let mut d = Diagnostic::new(code, target, message);
        d.severity = Severity::Warning;
        d
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}] {}: {}",
            self.code, self.severity, self.rule, self.target, self.message
        )
    }
}

/// Record of one seeded-foil check: the rule's code and whether the
/// foil was caught. A report with an uncaught canary means a rule
/// silently stopped detecting the violation it exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canary {
    /// The rule whose foil was run.
    pub code: &'static str,
    /// Whether the seeded violation produced the expected diagnostic.
    pub caught: bool,
}

/// The analyzer's result: the rule catalog, the diagnostics from the
/// analyzed targets, and the canary outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The full rule catalog in effect when the report was produced.
    pub rules: Vec<RuleMeta>,
    /// Findings, in rule-registration order.
    pub diagnostics: Vec<Diagnostic>,
    /// Seeded-foil outcomes appended by the gate runner.
    pub canaries: Vec<Canary>,
    /// Model-checker throughput (engine events per wall-clock second)
    /// measured while producing this report, if the producer ran the
    /// explorer. Advisory: machine- and load-dependent, excluded from
    /// structural validation beyond being a number.
    pub explored_states_per_sec: Option<i64>,
}

impl Report {
    /// A report over the current [`catalog`] with the given findings.
    #[must_use]
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        Report {
            rules: catalog().to_vec(),
            diagnostics,
            canaries: Vec::new(),
            explored_states_per_sec: None,
        }
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True iff there are no findings at all. Honest specs and traces
    /// must be clean in this strict sense — warnings included.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True iff some finding carries `code`.
    #[must_use]
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Records a seeded-foil outcome.
    pub fn add_canary(&mut self, code: &'static str, caught: bool) {
        self.canaries.push(Canary { code, caught });
    }

    /// Serializes to pretty `skewbound-lint-report/v1` JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rules = self
            .rules
            .iter()
            .map(|m| {
                obj([
                    ("code", Json::Str(m.code.into())),
                    ("name", Json::Str(m.name.into())),
                    ("severity", Json::Str(m.severity.label().into())),
                    ("summary", Json::Str(m.summary.into())),
                ])
            })
            .collect();
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|d| {
                obj([
                    ("code", Json::Str(d.code.into())),
                    ("severity", Json::Str(d.severity.label().into())),
                    ("rule", Json::Str(d.rule.into())),
                    ("target", Json::Str(d.target.clone())),
                    ("message", Json::Str(d.message.clone())),
                ])
            })
            .collect();
        let canaries = self
            .canaries
            .iter()
            .map(|c| {
                obj([
                    ("code", Json::Str(c.code.into())),
                    ("caught", Json::Bool(c.caught)),
                ])
            })
            .collect();
        let mut members = vec![
            ("schema", Json::Str(SCHEMA.into())),
            ("rules", Json::Arr(rules)),
            ("diagnostics", Json::Arr(diagnostics)),
            ("canaries", Json::Arr(canaries)),
            ("errors", Json::Num(self.errors() as i64)),
            ("warnings", Json::Num(self.warnings() as i64)),
        ];
        if let Some(rate) = self.explored_states_per_sec {
            members.push(("explored_states_per_sec", Json::Num(rate)));
        }
        obj(members).pretty()
    }
}

/// Re-parses and structurally validates an emitted report: schema tag,
/// non-empty rule catalog with well-formed `SBxxx` codes, diagnostics
/// that reference cataloged codes, and error/warning counts that match
/// the diagnostic list.
///
/// # Errors
///
/// Returns a description of the first schema violation found.
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("report has no schema field")?;
    if schema != SCHEMA {
        return Err(format!("unexpected schema {schema:?} (want {SCHEMA:?})"));
    }
    let rules = doc
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or("report has no rules array")?;
    if rules.is_empty() {
        return Err("report lists no rules".into());
    }
    let mut codes = Vec::new();
    for rule in rules {
        let code = rule
            .get("code")
            .and_then(Json::as_str)
            .ok_or("rule entry has no code")?;
        if code.len() != 5
            || !code.starts_with("SB")
            || !code[2..].bytes().all(|b| b.is_ascii_digit())
        {
            return Err(format!("malformed rule code {code:?}"));
        }
        let severity = rule
            .get("severity")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("rule {code} has no severity"))?;
        if severity != "error" && severity != "warning" {
            return Err(format!("rule {code} has bad severity {severity:?}"));
        }
        for field in ["name", "summary"] {
            if rule.get(field).and_then(Json::as_str).is_none() {
                return Err(format!("rule {code} has no {field}"));
            }
        }
        codes.push(code.to_owned());
    }
    let diagnostics = doc
        .get("diagnostics")
        .and_then(Json::as_arr)
        .ok_or("report has no diagnostics array")?;
    let mut errors = 0i64;
    let mut warnings = 0i64;
    for d in diagnostics {
        let code = d
            .get("code")
            .and_then(Json::as_str)
            .ok_or("diagnostic has no code")?;
        if !codes.iter().any(|c| c == code) {
            return Err(format!(
                "diagnostic code {code:?} is not in the rule catalog"
            ));
        }
        match d.get("severity").and_then(Json::as_str) {
            Some("error") => errors += 1,
            Some("warning") => warnings += 1,
            other => return Err(format!("diagnostic {code} has bad severity {other:?}")),
        }
        for field in ["rule", "target", "message"] {
            if d.get(field).and_then(Json::as_str).is_none() {
                return Err(format!("diagnostic {code} has no {field}"));
            }
        }
    }
    if doc.get("errors").and_then(Json::as_num) != Some(errors) {
        return Err("errors count does not match diagnostics".into());
    }
    if doc.get("warnings").and_then(Json::as_num) != Some(warnings) {
        return Err("warnings count does not match diagnostics".into());
    }
    if let Some(rate) = doc.get("explored_states_per_sec") {
        match rate.as_num() {
            Some(n) if n >= 0 => {}
            _ => return Err("explored_states_per_sec must be a non-negative number".into()),
        }
    }
    for canary in doc
        .get("canaries")
        .and_then(Json::as_arr)
        .ok_or("report has no canaries array")?
    {
        let code = canary
            .get("code")
            .and_then(Json::as_str)
            .ok_or("canary has no code")?;
        if !codes.iter().any(|c| c == code) {
            return Err(format!("canary code {code:?} is not in the rule catalog"));
        }
        if canary.get("caught").and_then(Json::as_bool).is_none() {
            return Err(format!("canary {code} has no caught flag"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_codes_are_unique_and_well_formed() {
        let catalog = catalog();
        assert!(catalog.len() >= 6, "the analyzer ships at least six rules");
        for (i, m) in catalog.iter().enumerate() {
            assert!(m.code.starts_with("SB") && m.code.len() == 5, "{}", m.code);
            for other in &catalog[i + 1..] {
                assert_ne!(m.code, other.code, "duplicate code");
                assert_ne!(m.name, other.name, "duplicate name");
            }
        }
    }

    #[test]
    fn diagnostics_inherit_catalog_severity() {
        let d = Diagnostic::new("SB103", "trace", "inverted");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.rule, "channel-fifo");
        let d = Diagnostic::new("SB001", "register", "misrouted");
        assert_eq!(d.severity, Severity::Error);
        assert!(format!("{d}").contains("SB001 error [routing-consistency]"));
    }

    #[test]
    #[should_panic(expected = "unknown diagnostic code")]
    fn unknown_codes_are_rejected() {
        let _ = Diagnostic::new("SB999", "x", "y");
    }

    #[test]
    fn report_round_trips_and_validates() {
        let mut report = Report::new(vec![
            Diagnostic::new("SB001", "foil", "mutator never mutates"),
            Diagnostic::warning("SB003", "foil", "unconfirmed declaration"),
        ]);
        report.add_canary("SB001", true);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 1);
        assert!(!report.is_clean());
        assert!(report.has_code("SB001") && !report.has_code("SB104"));
        let text = report.to_json();
        validate_report(&text).expect("emitted reports validate");
        assert!(text.contains("\"schema\": \"skewbound-lint-report/v1\""));
    }

    #[test]
    fn validation_rejects_drifted_reports() {
        let report = Report::new(vec![]);
        let good = report.to_json();
        assert!(validate_report(&good.replace("/v1", "/v0")).is_err());
        assert!(validate_report(&good.replace("SB001", "XX001")).is_err());
        assert!(validate_report("{}").is_err());
        // A diagnostics/count mismatch is caught.
        let lying = good.replace("\"errors\": 0", "\"errors\": 3");
        assert!(validate_report(&lying).is_err());
    }
}
