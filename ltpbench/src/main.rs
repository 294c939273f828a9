//! `ltpbench --workload NAME --seed N --seconds S --trace 0|1 --ref-nominal-ms MS`
//!
//! Prints diagnostics, then the result line as the last line of stdout.
//!
//! An untraced run starts `PROCESSES` measuring processes of this program
//! one after another (`--measure`). Each runs its share of the rounds and
//! prints its samples; the run adds up their operation counts and computes
//! the metrics over all their samples together. A traced run (`--trace 1`) is a
//! separate binary, `ltpbench-traced`, built and run on demand, so a change
//! to the lower-level simulator API that it decomposes breaks only traced
//! runs.

use std::process::{Command, ExitCode, Stdio};

use ltpbench::args::{parse, Args};
use ltpbench::norm::median;
use ltpbench::plan::{Plan, PROCESSES};
use ltpbench::report::{combine, result_line, Measured};
use ltpbench::run;

/// Builds and runs the traced binary with the same arguments.
fn run_traced(args: &[String]) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let status = Command::new(cargo)
        .args([
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            manifest,
        ])
        .args(["--bin", "ltpbench-traced", "--"])
        .args(args)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => {
            eprintln!("ltpbench: traced run failed: {s}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ltpbench: cannot start the traced run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ltpbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        run_traced(&raw)
    } else if args.measure {
        measure(&args)
    } else {
        run_processes(&args, &raw)
    }
}

/// Starts the measuring processes one after another and reports what they
/// measured together.
fn run_processes(args: &Args, raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ltpbench: cannot find this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut parts = Vec::new();
    for i in 0..PROCESSES {
        let output = Command::new(&exe)
            .args(raw)
            .arg("--measure")
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ltpbench: cannot start measuring process {i}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        for line in text.lines() {
            println!("process {i}: {line}");
        }
        match Measured::parse(&text) {
            Some(m) if output.status.success() => parts.push(m),
            _ => {
                eprintln!("ltpbench: measuring process {i} failed: {}", output.status);
                return ExitCode::FAILURE;
            }
        }
    }
    let (correct, attempted, failed, metrics) = combine(parts);
    if failed == 0 && !correct {
        println!("note: the measuring processes disagree on the workload digest");
    }
    println!(
        "{} seed {}: {PROCESSES} processes, attempted {attempted} failed {failed}; \
         metrics over all their samples:",
        args.workload.name(),
        args.seed
    );
    for m in &metrics {
        println!("{:<22} {:>16.4} {}", m.name, m.value, m.unit);
    }
    match result_line(correct, attempted, failed, &metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ltpbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One measuring process: runs its share of the work, then prints
/// diagnostics and its measurements.
fn measure(args: &Args) -> ExitCode {
    let plan = Plan::new(args.workload, args.seed, args.seconds, args.nominal_ref_ms);
    let result = run::run(args.workload, &plan);
    for note in &result.notes {
        println!("note: {note}");
    }
    let (attempted, failed) = result.tally();
    let digest = result.digest();
    println!(
        "{} seed {}: digest {digest} attempted {attempted} failed {failed}",
        args.workload.name(),
        args.seed,
    );
    let setup_s: Vec<String> = result
        .setups
        .iter()
        .map(|pieces| format!("{:.4}", pieces.iter().sum::<f64>() / 1e3))
        .collect();
    println!("set-ups, normalised s: {}", setup_s.join(" "));
    let refs = &result.refs;
    println!(
        "reference kernel: {} runs, raw ms median {:.4} min {:.4} max {:.4} (nominal {})",
        refs.len(),
        median(refs),
        refs.iter().copied().fold(f64::INFINITY, f64::min),
        refs.iter().copied().fold(0.0, f64::max),
        plan.nominal_ref_ms
    );
    if result.setups.is_empty() || result.ops.iter().all(|op| op.error.is_some()) {
        eprintln!(
            "ltpbench: {}: no successful set-up or operation",
            args.workload.name()
        );
        return ExitCode::FAILURE;
    }
    let raw: Vec<f64> = result.ops.iter().map(|op| op.sample.raw_ms).collect();
    let norm: Vec<f64> = result.ops.iter().map(|op| op.sample.norm_ms()).collect();
    println!(
        "raw operation ms: median {:.4} over {} operations (normalised median {:.4})",
        median(&raw),
        raw.len(),
        median(&norm)
    );
    for m in result.metrics() {
        println!(
            "{:<22} {:>16.4} {} (this process alone)",
            m.name, m.value, m.unit
        );
    }
    let measured = Measured {
        attempted,
        failed,
        digest,
        samples: result.samples(),
    };
    print!("{}", measured.lines());
    ExitCode::SUCCESS
}
