//! The lint framework: a [`Lint`] checks one invariant of one config
//! type, a [`LintRegistry`] runs a whole rule set and collects a
//! [`Report`].
//!
//! Rules are data, not control flow: the CLI can enumerate them
//! (`bsim check --list`), tests can assert a registry carries a given
//! code, and new rules are one [`Rule::new`] call — no match arms to
//! extend.

use crate::diag::Report;

/// One named invariant over a config type `T`.
pub trait Lint<T: ?Sized> {
    /// Stable diagnostic code this rule emits (`CL001`, `PF010`, ...).
    fn code(&self) -> &'static str;
    /// One-line description for `--list` output.
    fn summary(&self) -> &'static str;
    /// Checks `target`, pushing findings (spanned at `span`) into `out`.
    fn check(&self, target: &T, span: &str, out: &mut Report);
}

/// A [`Lint`] built from a plain function — the common case.
pub struct Rule<T: ?Sized + 'static> {
    code: &'static str,
    summary: &'static str,
    check: fn(&T, &str, &mut Report),
}

impl<T: ?Sized + 'static> Rule<T> {
    /// Wraps `check` as a rule emitting `code`.
    pub fn new(
        code: &'static str,
        summary: &'static str,
        check: fn(&T, &str, &mut Report),
    ) -> Rule<T> {
        Rule {
            code,
            summary,
            check,
        }
    }
}

impl<T: ?Sized + 'static> Lint<T> for Rule<T> {
    fn code(&self) -> &'static str {
        self.code
    }

    fn summary(&self) -> &'static str {
        self.summary
    }

    fn check(&self, target: &T, span: &str, out: &mut Report) {
        (self.check)(target, span, out)
    }
}

/// An ordered set of lints over one config type.
pub struct LintRegistry<T: ?Sized + 'static> {
    lints: Vec<Box<dyn Lint<T>>>,
}

impl<T: ?Sized + 'static> Default for LintRegistry<T> {
    fn default() -> Self {
        LintRegistry::new()
    }
}

impl<T: ?Sized + 'static> LintRegistry<T> {
    /// An empty registry.
    pub fn new() -> LintRegistry<T> {
        LintRegistry { lints: Vec::new() }
    }

    /// Adds a boxed lint.
    pub fn register(&mut self, lint: Box<dyn Lint<T>>) -> &mut Self {
        self.lints.push(lint);
        self
    }

    /// Adds a function rule (builder style).
    pub fn rule(
        mut self,
        code: &'static str,
        summary: &'static str,
        check: fn(&T, &str, &mut Report),
    ) -> Self {
        self.lints.push(Box::new(Rule::new(code, summary, check)));
        self
    }

    /// `(code, summary)` for every registered lint, in order.
    pub fn codes(&self) -> Vec<(&'static str, &'static str)> {
        self.lints.iter().map(|l| (l.code(), l.summary())).collect()
    }

    /// Runs every lint against `target`, findings spanned at `span`.
    pub fn run(&self, target: &T, span: &str) -> Report {
        let mut out = Report::new();
        self.run_into(target, span, &mut out);
        out
    }

    /// [`LintRegistry::run`], appending into an existing report.
    pub(crate) fn run_into(&self, target: &T, span: &str, out: &mut Report) {
        for lint in &self.lints {
            lint.check(target, span, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    fn nonzero_rule() -> LintRegistry<u32> {
        LintRegistry::new().rule("T001", "value must be nonzero", |v, span, out| {
            if *v == 0 {
                out.push(Diagnostic::error("T001", span, "value is zero"));
            }
        })
    }

    #[test]
    fn rules_fire_only_on_violations() {
        let reg = nonzero_rule();
        assert!(reg.run(&3, "x").is_clean());
        let r = reg.run(&0, "x");
        assert!(r.has_code("T001"));
        assert_eq!(r.diagnostics[0].span, "x");
    }

    #[test]
    fn registries_enumerate_their_codes() {
        let reg = nonzero_rule().rule("T002", "another", |_, _, _| {});
        assert_eq!(
            reg.codes(),
            vec![("T001", "value must be nonzero"), ("T002", "another")]
        );
    }

    #[test]
    fn custom_lint_impls_register() {
        struct Always;
        impl Lint<u32> for Always {
            fn code(&self) -> &'static str {
                "T003"
            }
            fn summary(&self) -> &'static str {
                "always fires"
            }
            fn check(&self, _: &u32, span: &str, out: &mut Report) {
                out.push(Diagnostic::note("T003", span, "hello"));
            }
        }
        let mut reg = LintRegistry::new();
        reg.register(Box::new(Always));
        assert!(reg.run(&1, "y").has_code("T003"));
    }
}
