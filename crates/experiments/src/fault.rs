//! Deterministic fault injection for the sampled runner.
//!
//! The runner's panic isolation ([`crate::parallel::stream_map_lpt`]) is
//! only trustworthy if its failure path is exercised on purpose: a
//! [`FaultPlan`] panics the simulation of *chosen* intervals, so every test
//! (and the CI canary) drives exactly the failure it claims to cover.
//!
//! Plans reach the runner two ways: tests build them with the builder
//! methods, and the `experiments` binary and the job server parse their
//! `--inject` / `"inject"` text via [`FaultPlan::parse`].

/// A deterministic set of faults to inject into a sampled run, keyed by
/// interval index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Intervals whose simulation panics.
    panics: Vec<usize>,
}

impl FaultPlan {
    /// An empty plan: injects nothing.
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
    }

    /// Panics the simulation of interval `index`.
    #[must_use]
    pub fn panic_at(mut self, index: usize) -> FaultPlan {
        self.panics.push(index);
        self
    }

    /// Runs the fault scheduled for interval `index`: panics if the plan
    /// schedules a panic there. Called at the top of each interval's
    /// simulation, inside the runner's panic isolation.
    ///
    /// # Panics
    ///
    /// Panics exactly when the plan schedules a panic for this interval —
    /// that is the injected fault.
    pub fn inject(&self, index: usize) {
        if self.panics.contains(&index) {
            panic!("injected fault: interval {index}");
        }
    }

    /// Parses a plan from its command-line form: comma-separated directives
    /// `panic@IDX`, e.g. `panic@3,panic@0`. An empty string is the empty
    /// plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, idx) = part
                .split_once('@')
                .ok_or_else(|| format!("fault directive `{part}` is missing `@`"))?;
            if kind != "panic" {
                return Err(format!("unknown fault kind `{kind}` in `{part}`"));
            }
            let idx = idx
                .parse()
                .map_err(|_| format!("bad interval index in `{part}`"))?;
            plan = plan.panic_at(idx);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        for i in 0..8 {
            plan.inject(i); // must not panic
        }
    }

    #[test]
    fn panic_fires_only_at_its_coordinate() {
        let plan = FaultPlan::new().panic_at(2);
        plan.inject(1);
        plan.inject(3);
        let err = std::panic::catch_unwind(|| plan.inject(2)).expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "injected fault: interval 2");
    }

    #[test]
    fn parse_round_trips_every_directive() {
        let plan = FaultPlan::parse("panic@3, panic@1 ,panic@2").expect("valid spec");
        assert_eq!(plan, FaultPlan::new().panic_at(3).panic_at(1).panic_at(2));
        assert_eq!(FaultPlan::parse("").expect("empty"), FaultPlan::new());
    }

    #[test]
    fn parse_rejects_malformed_directives() {
        for bad in [
            "panic",
            "panic@x",
            "panic@0.0",
            "corrupt@1",
            "delay@1.0=80",
            "explode@1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }
}
