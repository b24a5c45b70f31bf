//! The one pass/fail path every `figures` subcommand exits through.
//! Expectations are recorded as named checks on a [`GateResult`] — one
//! per bound of a `suite::GATES` row, via `suite::apply_gates`; the
//! binary's `main` renders the result and maps `!ok()` to a non-zero exit.

use std::fmt;

/// One named expectation.
#[derive(Clone, Debug)]
pub struct GateCheck {
    /// Short stable label: the row and its bound
    /// ("exitless.doorbell_cmd_exits <= 0").
    pub label: String,
    /// Whether the expectation held.
    pub passed: bool,
    /// Detail line: what was measured, and against which bound.
    pub detail: String,
}

/// Accumulated gate checks for one subcommand run.
#[derive(Clone, Debug, Default)]
pub struct GateResult {
    /// All checks, in evaluation order.
    pub checks: Vec<GateCheck>,
}

impl GateResult {
    /// An empty result (how a harness without bounded rows reports:
    /// trivially ok).
    pub fn new() -> GateResult {
        GateResult::default()
    }

    /// Record one expectation.
    pub fn check(&mut self, label: &str, passed: bool, detail: impl fmt::Display) {
        self.checks.push(GateCheck {
            label: label.to_string(),
            passed,
            detail: detail.to_string(),
        });
    }

    /// True when every check passed (vacuously true when ungated).
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The failed checks.
    pub fn failures(&self) -> Vec<&GateCheck> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }

    /// Render failures plus the pass/fail tally. Empty for an ungated
    /// (checkless) result so plain figure commands stay quiet.
    pub fn render(&self) -> String {
        if self.checks.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        for c in &self.checks {
            if !c.passed {
                out.push_str(&format!("FAIL: {} — {}\n", c.label, c.detail));
            }
        }
        let passed = self.checks.iter().filter(|c| c.passed).count();
        if self.ok() {
            out.push_str(&format!("OK: all {} gate(s) passed\n", self.checks.len()));
        } else {
            out.push_str(&format!(
                "gates: {}/{} passed; failed: {}\n",
                passed,
                self.checks.len(),
                self.failures()
                    .iter()
                    .map(|c| c.label.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_result_is_ok_and_silent() {
        let g = GateResult::new();
        assert!(g.ok());
        assert!(g.render().is_empty());
    }

    #[test]
    fn failure_is_named_and_fails_the_result() {
        let mut g = GateResult::new();
        g.check("a", true, "fine");
        g.check("exitless p99", false, "only 3.0x, need 5x");
        assert!(!g.ok());
        assert_eq!(g.failures().len(), 1);
        let r = g.render();
        assert!(r.contains("FAIL: exitless p99"));
        assert!(r.contains("1/2 passed"));
    }
}
