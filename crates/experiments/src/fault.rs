//! Deterministic fault injection for the sampled runner.
//!
//! The fault-tolerance layer ([`crate::parallel::stream_map_lpt`]) is only
//! trustworthy if its failure paths are exercised on purpose: a [`FaultPlan`]
//! injects worker panics at *chosen* `(interval index, attempt number)`
//! coordinates and corrupts chosen journal records, so every test (and the
//! CI canary) drives exactly the failure it claims to cover and the run is
//! reproducible down to which attempt dies.
//!
//! Plans reach the runner two ways: tests build them with the builder
//! methods, and the `experiments` binary parses `--inject` via
//! [`FaultPlan::parse`].

/// A deterministic set of faults to inject into a sampled run, keyed by
/// interval index and zero-based attempt number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(interval, attempt)` pairs whose simulation attempt panics.
    panics: Vec<(usize, u32)>,
    /// Journal record indices whose on-disk bytes are corrupted after the
    /// run (exercises the checksum recovery on resume).
    corrupt: Vec<usize>,
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
        self.panics.is_empty() && self.corrupt.is_empty()
    }

    /// Panics attempt `attempt` of interval `index`.
    #[must_use]
    pub fn panic_at(mut self, index: usize, attempt: u32) -> FaultPlan {
        self.panics.push((index, attempt));
        self
    }

    /// Corrupts the journal record at position `index` (completion order)
    /// after the run writes it.
    #[must_use]
    pub fn corrupt_record(mut self, index: usize) -> FaultPlan {
        self.corrupt.push(index);
        self
    }

    /// Whether the journal record at position `index` should be corrupted.
    #[must_use]
    pub fn corrupts(&self, index: usize) -> bool {
        self.corrupt.contains(&index)
    }

    /// Journal record positions the plan corrupts.
    #[must_use]
    pub fn corrupted_records(&self) -> &[usize] {
        &self.corrupt
    }

    /// Runs the fault scheduled for `(index, attempt)`: panics if the plan
    /// schedules a panic there. Called at the top of each simulation
    /// attempt, inside the runner's panic isolation.
    ///
    /// # Panics
    ///
    /// Panics exactly when the plan schedules a panic for this coordinate —
    /// that is the injected fault.
    pub fn inject(&self, index: usize, attempt: u32) {
        if self.panics.contains(&(index, attempt)) {
            panic!("injected fault: interval {index} attempt {attempt}");
        }
    }

    /// Parses a plan from its command-line form: comma-separated directives
    /// `panic@IDX.ATT` and `corrupt@IDX`, e.g. `panic@3.0,corrupt@2`. An
    /// empty string is the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, coord) = part
                .split_once('@')
                .ok_or_else(|| format!("fault directive `{part}` is missing `@`"))?;
            match kind {
                "panic" => {
                    let (idx, att) = parse_coord(coord)?;
                    plan = plan.panic_at(idx, att);
                }
                "corrupt" => {
                    let idx: usize = coord
                        .parse()
                        .map_err(|_| format!("bad record index in `{part}`"))?;
                    plan = plan.corrupt_record(idx);
                }
                other => return Err(format!("unknown fault kind `{other}` in `{part}`")),
            }
        }
        Ok(plan)
    }
}

/// Parses `IDX.ATT` into `(interval index, attempt)`.
fn parse_coord(coord: &str) -> Result<(usize, u32), String> {
    let (idx, att) = coord
        .split_once('.')
        .ok_or_else(|| format!("fault coordinate `{coord}` is not IDX.ATT"))?;
    let idx = idx
        .parse()
        .map_err(|_| format!("bad interval index in `{coord}`"))?;
    let att = att
        .parse()
        .map_err(|_| format!("bad attempt number in `{coord}`"))?;
    Ok((idx, att))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        for i in 0..8 {
            for a in 0..3 {
                plan.inject(i, a); // must not panic
            }
        }
    }

    #[test]
    fn panic_fires_only_at_its_coordinate() {
        let plan = FaultPlan::new().panic_at(2, 1);
        plan.inject(2, 0);
        plan.inject(1, 1);
        let err = std::panic::catch_unwind(|| plan.inject(2, 1)).expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("interval 2 attempt 1"), "{msg}");
    }

    #[test]
    fn parse_round_trips_every_directive() {
        let plan = FaultPlan::parse("panic@3.0, panic@1.2 ,corrupt@2").expect("valid spec");
        assert_eq!(
            plan,
            FaultPlan::new()
                .panic_at(3, 0)
                .panic_at(1, 2)
                .corrupt_record(2)
        );
        assert!(plan.corrupts(2));
        assert!(!plan.corrupts(3));
        assert_eq!(FaultPlan::parse("").expect("empty"), FaultPlan::new());
    }

    #[test]
    fn parse_rejects_malformed_directives() {
        for bad in [
            "panic",
            "panic@x.0",
            "panic@0",
            "delay@1.0=80",
            "corrupt@x",
            "explode@1.0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }
}
