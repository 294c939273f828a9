//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the samples the end-to-end metrics come from; and how a
//! run's measuring processes hand their samples to it.

use crate::norm::{median, sum_of_medians};

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Normalised times of one successful operation, in ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTimes {
    /// Index of the operation's point.
    pub point: usize,
    /// The whole operation.
    pub op_ms: f64,
    /// From its start to its first result.
    pub first_ms: f64,
    /// From its start to its final result.
    pub done_ms: f64,
}

/// The samples the end-to-end metrics are computed from: those of one
/// measuring process, or of all of a run's processes together.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Samples {
    /// Points in one round.
    pub points: usize,
    /// Trace instructions one operation covers.
    pub insts_per_op: u64,
    /// Normalised ms of every piece of each set-up, one vector per set-up.
    pub setups: Vec<Vec<f64>>,
    /// Every successful operation.
    pub ops: Vec<OpTimes>,
    /// Peak RSS of each measuring process, in MB.
    pub peak_rss_mb: Vec<f64>,
}

impl Samples {
    /// Adds another process's samples of the same workload.
    pub fn merge(&mut self, other: Samples) {
        self.points = self.points.max(other.points);
        self.insts_per_op = self.insts_per_op.max(other.insts_per_op);
        self.setups.extend(other.setups);
        self.ops.extend(other.ops);
        self.peak_rss_mb.extend(other.peak_rss_mb);
    }

    /// The end-to-end metrics, every one of them for every workload. Each
    /// median runs over the samples of every process, so one process that
    /// runs fast or slow throughout moves none of them much.
    ///
    /// # Panics
    ///
    /// Panics when there is no operation or RSS sample.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let mut op = vec![Vec::new(); self.points];
        for t in &self.ops {
            op[t.point].push(t.op_ms);
        }
        let first: Vec<f64> = self.ops.iter().map(|t| t.first_ms).collect();
        let done: Vec<f64> = self.ops.iter().map(|t| t.done_ms).collect();
        let points_run = op.iter().filter(|v| !v.is_empty()).count() as u64;
        let round_s = sum_of_medians(&op) / 1e3;
        let pieces = self.setups.iter().map(Vec::len).min().unwrap_or(0);
        let by_piece: Vec<Vec<f64>> = (0..pieces)
            .map(|i| self.setups.iter().map(|s| s[i]).collect())
            .collect();
        vec![
            Metric::new("setup_s", "s", sum_of_medians(&by_piece) / 1e3),
            Metric::new(
                "insts_per_s",
                "insts/s",
                (self.insts_per_op * points_run) as f64 / round_s,
            ),
            Metric::new("job_ms_p50", "ms", median(&done)),
            Metric::new("first_result_ms_p50", "ms", median(&first)),
            Metric::new("peak_rss_mb", "MB", median(&self.peak_rss_mb)),
        ]
    }
}

/// What one measuring process reports: its operation counts, its workload
/// digest and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Workload digest.
    pub digest: String,
    /// The samples.
    pub samples: Samples,
}

/// Prefix of the lines a measuring process prints for the run.
const MEASURED: &str = "measured";

impl Measured {
    /// The lines that carry this report, values with every digit.
    #[must_use]
    pub fn lines(&self) -> String {
        let s = &self.samples;
        let mut out = format!(
            "{MEASURED} tally {} {}\n{MEASURED} digest {}\n{MEASURED} shape {} {}\n",
            self.attempted, self.failed, self.digest, s.points, s.insts_per_op
        );
        for setup in &s.setups {
            let pieces: Vec<String> = setup.iter().map(|v| format!("{v:?}")).collect();
            out += &format!("{MEASURED} setup {}\n", pieces.join(" "));
        }
        for t in &s.ops {
            out += &format!(
                "{MEASURED} op {} {:?} {:?} {:?}\n",
                t.point, t.op_ms, t.first_ms, t.done_ms
            );
        }
        for v in &s.peak_rss_mb {
            out += &format!("{MEASURED} peak_rss_mb {v:?}\n");
        }
        out
    }

    /// Reads a report back from a process's output; other lines are
    /// ignored. `None` when the tally, digest or shape line is missing or a
    /// line is malformed.
    #[must_use]
    pub fn parse(text: &str) -> Option<Measured> {
        let (mut tally, mut digest, mut shape) = (None, None, None);
        let mut samples = Samples::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| fields.get(i)?.parse::<f64>().ok();
            match fields[..] {
                [MEASURED, "tally", a, f] => tally = Some((a.parse().ok()?, f.parse().ok()?)),
                [MEASURED, "digest", d] => digest = Some(d.to_string()),
                [MEASURED, "shape", p, i] => shape = Some((p.parse().ok()?, i.parse().ok()?)),
                [MEASURED, "setup", ..] => samples
                    .setups
                    .push((2..fields.len()).map(num).collect::<Option<_>>()?),
                [MEASURED, "op", p, ..] if fields.len() == 6 => samples.ops.push(OpTimes {
                    point: p.parse().ok()?,
                    op_ms: num(3)?,
                    first_ms: num(4)?,
                    done_ms: num(5)?,
                }),
                [MEASURED, "peak_rss_mb", _] => samples.peak_rss_mb.push(num(2)?),
                [MEASURED, ..] => return None,
                _ => {}
            }
        }
        let (attempted, failed) = tally?;
        (samples.points, samples.insts_per_op) = shape?;
        if samples.ops.iter().any(|t| t.point >= samples.points) {
            return None;
        }
        Some(Measured {
            attempted,
            failed,
            digest: digest?,
            samples,
        })
    }
}

/// Combines the reports of a run's measuring processes: operation counts
/// add up and the metrics come from all their samples together. The run is
/// correct only when no operation failed and every process computed the
/// same workload digest.
///
/// # Panics
///
/// Panics when `parts` is empty or holds no operation.
#[must_use]
pub fn combine(parts: Vec<Measured>) -> (bool, usize, usize, Vec<Metric>) {
    let first_digest = parts.first().expect("a measuring process").digest.clone();
    let same_digest = parts.iter().all(|p| p.digest == first_digest);
    let (mut attempted, mut failed) = (0, 0);
    let mut samples = Samples::default();
    for p in parts {
        attempted += p.attempted;
        failed += p.failed;
        samples.merge(p.samples);
    }
    (
        failed == 0 && same_digest,
        attempted,
        failed,
        samples.metrics(),
    )
}

/// Renders the result line. Values print with every digit Rust's shortest
/// round-trip formatting gives.
///
/// # Errors
///
/// Names every metric whose value is not finite (JSON cannot carry it).
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    let bad: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !bad.is_empty() {
        return Err(format!("non-finite metrics: {}", bad.join(", ")));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("a_ms", "ms", 1.25),
                Metric::new("n", "count", 2.0),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"a_ms\":{\"value\":1.25,\"unit\":\"ms\"},\"n\":{\"value\":2.0,\"unit\":\"count\"}}}"
        );
        assert!(result_line(true, 1, 0, &[Metric::new("x", "s", f64::NAN)]).is_err());
    }

    fn measured(failed: usize, digest: &str, slow: f64) -> Measured {
        let op = |point, ms| OpTimes {
            point,
            op_ms: ms,
            first_ms: ms / 4.0,
            done_ms: ms,
        };
        Measured {
            attempted: 4,
            failed,
            digest: digest.to_string(),
            samples: Samples {
                points: 2,
                insts_per_op: 1000,
                setups: vec![vec![1.0 * slow, 2.0], vec![1.0, 2.0]],
                ops: vec![
                    op(0, 10.0 * slow),
                    op(0, 10.0),
                    op(1, 30.0),
                    op(1, 30.0),
                    op(1, 30.0),
                ],
                peak_rss_mb: vec![50.0 * slow],
            },
        }
    }

    #[test]
    fn measured_lines_round_trip_among_other_output() {
        let m = measured(1, "0x00ff", 1.0 / 3.0);
        let text = format!("note: x\n{}{{\"correct\":true}}\n", m.lines());
        assert_eq!(Measured::parse(&text), Some(m));
        assert_eq!(Measured::parse("note: nothing measured\n"), None);
        let bad =
            "measured tally 1 0\nmeasured digest 0\nmeasured shape 1 5\nmeasured op 3 1 1 1\n";
        assert_eq!(Measured::parse(bad), None);
    }

    #[test]
    fn processes_combine_over_all_their_samples() {
        // Three processes run as expected, one runs its first operation and
        // set-up twice as slowly and peaks twice as high: no median moves.
        let parts = vec![
            measured(0, "d", 1.0),
            measured(0, "d", 1.0),
            measured(0, "d", 2.0),
            measured(0, "d", 1.0),
        ];
        let (correct, attempted, failed, metrics) = combine(parts.clone());
        assert!(correct);
        assert_eq!((attempted, failed), (16, 0));
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("insts_per_s"), 2000.0 / 0.040);
        assert_eq!(value("job_ms_p50"), 30.0);
        assert_eq!(value("first_result_ms_p50"), 7.5);
        assert_eq!(value("peak_rss_mb"), 50.0);
        assert_eq!(value("setup_s"), 3.0 / 1e3);
        // A failed operation or a process that disagrees on the digest
        // makes the run incorrect.
        let mut bad = parts.clone();
        bad[1].failed = 2;
        let (correct, _, failed, _) = combine(bad);
        assert!(!correct);
        assert_eq!(failed, 2);
        let mut bad = parts;
        bad[3].digest = "e".to_string();
        assert!(!combine(bad).0);
    }
}
