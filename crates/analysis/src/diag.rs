//! Structured diagnostics: severity, stable code, location, message.
//!
//! Every check in this crate reports through [`Diagnostic`] so tooling can
//! gate on severity and pin exact codes in golden tests. Codes are stable
//! identifiers, never reused:
//!
//! * `SF01xx` — bytecode verifier (`stencilflow_expr::verify`), surfaced
//!   here when a stencil kernel fails verification;
//! * `SF02xx` — program/DAG analyzer ([`crate::analyze_program`]);
//! * `SF03xx` — shard-link sizing ([`crate::analyze_sharding`]).

use stencilflow_json::Json;

/// How bad a diagnostic is. `Error` means the program (or configuration)
/// is wrong and will misbehave at runtime; `Warning` flags something
/// legal but suspicious; `Info` records a judgment worth surfacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    /// Lowercase label used in rendered text and JSON.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding of a static check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable code (`SF0201`, ...) golden tests pin against.
    pub code: &'static str,
    /// Where in the program the finding anchors: a stencil, input, edge
    /// (`a -> b`), or the program itself.
    pub location: String,
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(
        severity: Severity,
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity,
            code,
            location: location.into(),
            message: message.into(),
        }
    }

    /// Render as a single compiler-style line:
    /// `error[SF0201] listing1/b0: ...`.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity.label(),
            self.code,
            self.location,
            self.message
        )
    }

    /// JSON form used by the `analyze` binary's artifact.
    pub(crate) fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "severity".into(),
                Json::String(self.severity.label().into()),
            ),
            ("code".into(), Json::String(self.code.into())),
            ("location".into(), Json::String(self.location.clone())),
            ("message".into(), Json::String(self.message.clone())),
        ])
    }
}

/// Everything the analyzer found about one program (plus, optionally, one
/// shard configuration of it).
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Name of the analyzed program.
    pub program: String,
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Worst severity present, or `None` for a clean report.
    pub(crate) fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// True when no diagnostic reaches `Error` severity (warnings and
    /// infos do not gate).
    pub fn is_clean(&self) -> bool {
        self.max_severity() < Some(Severity::Error)
    }

    /// All diagnostics carrying `code`.
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// JSON form used by the `analyze` binary's artifact.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("program".into(), Json::String(self.program.clone())),
            ("clean".into(), Json::Bool(self.is_clean())),
            (
                "diagnostics".into(),
                Json::Array(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_renders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        let d = Diagnostic::new(Severity::Error, "SF0201", "p/b", "cycle");
        assert_eq!(d.render(), "error[SF0201] p/b: cycle");
    }

    #[test]
    fn report_gates_on_errors_only() {
        let mut report = AnalysisReport {
            program: "p".into(),
            diagnostics: vec![Diagnostic::new(
                Severity::Warning,
                "SF0204",
                "p/b",
                "narrow",
            )],
        };
        assert!(report.is_clean());
        report
            .diagnostics
            .push(Diagnostic::new(Severity::Error, "SF0205", "p/b", "oob"));
        assert!(!report.is_clean());
        assert_eq!(report.with_code("SF0205").len(), 1);
        let json = report.to_json();
        assert_eq!(json.get("clean").and_then(Json::as_bool), Some(false));
    }
}
