//! The command line both binaries share:
//! `--workload NAME --seed N --seconds S --trace 0|1 --ref-nominal-ms MS`,
//! plus `--measure`, which a run passes to the measuring processes it
//! starts.

use crate::plan::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload (a traced run covers all of them).
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Seconds the run should measure at nominal speed.
    pub seconds: u64,
    /// Whether to print the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Nominal reference kernel time in ms (see [`crate::norm`]).
    pub nominal_ref_ms: f64,
    /// Whether this is one of a run's measuring processes.
    pub measure: bool,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a message for an unknown flag, a missing or malformed value, or a
/// missing `--workload` or `--ref-nominal-ms`.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2015;
    let mut seconds = 16;
    let mut trace = false;
    let mut nominal = None;
    let mut measure = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--ref-nominal-ms" => {
                nominal = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--ref-nominal-ms: {e}"))?,
                )
            }
            "--measure" => measure = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        nominal_ref_ms: nominal
            .filter(|n| *n > 0.0)
            .ok_or("--ref-nominal-ms (a positive number) is required")?,
        measure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&strings(&[
            "--ref-nominal-ms",
            "5",
            "--workload",
            "sampled_cold",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::SampledCold,
                seed: 3,
                seconds: 1,
                trace: true,
                nominal_ref_ms: 5.0,
                measure: false,
            }
        );
        let args = strings(&[
            "--workload",
            "service_warm",
            "--measure",
            "--ref-nominal-ms",
            "2",
        ]);
        assert!(parse(&args).unwrap().measure);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "full_detail"][..],
            &["--ref-nominal-ms", "5"],
            &["--ref-nominal-ms", "0", "--workload", "full_detail"],
            &["--ref-nominal-ms", "5", "--workload", "nope"],
        ] {
            assert!(parse(&strings(bad)).is_err(), "{bad:?}");
        }
        let valid = ["--ref-nominal-ms", "5", "--workload", "full_detail"];
        for extra in [
            &["--trace", "2"][..],
            &["--seed"],
            &["--measure", "1"],
            &["--bogus", "1"],
        ] {
            let args = strings(&[&valid[..], extra].concat());
            assert!(parse(&args).is_err(), "{args:?}");
        }
    }
}
