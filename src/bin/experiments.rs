//! Command-line driver regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [EXPERIMENT ...] [--quick] [--insts N] [--seed S] [--out DIR]
//!             [--cache DIR] [--journal DIR] [--resume DIR] [--inject SPEC]
//!             [--retries N]
//! experiments serve [--bind ADDR] [--workers N] [--max-jobs N]
//!             [--cache DIR] [--journal DIR] [--resume DIR]
//!
//! EXPERIMENT: all | table1 | fig1 | fig2 | fig6 | fig7 | fig10 | fig11 | uit
//!           | ablation | fig_smt | sample
//! ```
//!
//! Reports are printed to stdout and written to `<out>/<experiment>.txt`
//! (default `results/`). Run with `--release`; the debug build is an order of
//! magnitude slower.
//!
//! `--cache DIR` opens a content-addressed checkpoint cache shared by every
//! experiment of the invocation (and by later invocations pointing at the
//! same directory): sweeps serve their cache-warming from it and the sampled
//! runner its functional fast-forward warm states, so repeated runs pay each
//! functional warm-up once per distinct (trace, warm configuration). The
//! reports gain a cache-stats line when it is active.
//!
//! The fault-tolerance flags apply to the `sample` experiment: `--journal DIR`
//! appends completed intervals to per-point journals under `DIR`, `--resume
//! DIR` replays matching journals (and implies journaling to the same
//! directory), `--retries N` bounds attempts per interval, and `--inject
//! SPEC` injects a deterministic fault plan — see
//! `ltp_experiments::fault::FaultPlan::parse` for the grammar.
//!
//! `serve` starts the `ltp-service` HTTP job server on `--bind` (default
//! `127.0.0.1:8080`) and runs until killed. `--workers N` sizes the
//! cross-job interval-execution permit pool *and* exports `LTP_THREADS=N` so
//! every in-process worker pool agrees with it; `--max-jobs` caps concurrent
//! jobs (submissions beyond it get HTTP 429); `--cache`/`--journal` share the
//! CLI's checkpoint-cache and journal formats, and `--resume DIR` re-submits
//! jobs a killed server left unfinished under `DIR`, replaying their
//! journals bit-identically.
//!
//! Exit codes: 0 success, 2 usage/configuration error, 3 a simulation failed
//! outright, 4 everything ran but at least one sampled point is partial
//! (lost intervals, flagged in the report).

use ltp_experiments::fault::FaultPlan;
use ltp_experiments::{CheckpointCache, Experiment, ExperimentCtx, RunOptions};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Exit code for usage and configuration errors.
const EXIT_CONFIG: u8 = 2;
/// Exit code when a simulation failed outright.
const EXIT_SIM_ERROR: u8 = 3;
/// Exit code when every experiment ran but a sampled point is partial.
const EXIT_PARTIAL: u8 = 4;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(CliError { message, code }) => {
            eprintln!("error: {message}");
            if code == EXIT_CONFIG {
                eprintln!("{USAGE}");
            }
            ExitCode::from(code)
        }
    }
}

/// A fatal CLI failure with the exit code it maps to.
struct CliError {
    message: String,
    code: u8,
}

impl CliError {
    fn config(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: EXIT_CONFIG,
        }
    }

    fn io(what: &str, path: &str, e: &std::io::Error) -> CliError {
        CliError {
            message: format!("{what} `{path}`: {e}"),
            code: EXIT_CONFIG,
        }
    }
}

const USAGE: &str = "usage: experiments \
[all|table1|fig1|fig2|fig6|fig7|fig10|fig11|uit|ablation|fig_smt|sample ...] \
[--quick] [--insts N] [--seed S] [--out DIR] [--cache DIR] \
[--journal DIR] [--resume DIR] [--inject SPEC] [--retries N]\n\
       experiments serve [--bind ADDR] [--workers N] [--max-jobs N] \
[--cache DIR] [--journal DIR] [--resume DIR]";

fn run() -> Result<ExitCode, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve(&args[1..]).map(|()| ExitCode::SUCCESS);
    }
    let mut experiments: Vec<Experiment> = Vec::new();
    let mut opts = RunOptions::default();
    let mut out_dir = String::from("results");
    let mut cache_dir: Option<PathBuf> = None;
    let mut journal_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut faults = FaultPlan::new();
    let mut retries: Option<u32> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts = RunOptions::quick(),
            "--insts" => {
                i += 1;
                opts.detail_insts = parse_flag_value(&args, i, "--insts", "a number")?;
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_flag_value(&args, i, "--seed", "a number")?;
            }
            "--out" => {
                i += 1;
                out_dir = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| CliError::config("--out needs a path"))?;
            }
            "--cache" => {
                i += 1;
                let dir = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| CliError::config("--cache needs a directory"))?;
                cache_dir = Some(PathBuf::from(dir));
            }
            "--journal" => {
                i += 1;
                let dir = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| CliError::config("--journal needs a directory"))?;
                journal_dir = Some(PathBuf::from(dir));
            }
            "--resume" => {
                i += 1;
                let dir = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| CliError::config("--resume needs a directory"))?;
                journal_dir = Some(PathBuf::from(dir));
                resume = true;
            }
            "--inject" => {
                i += 1;
                let spec = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| CliError::config("--inject needs a fault spec"))?;
                faults = FaultPlan::parse(&spec)
                    .map_err(|e| CliError::config(format!("bad --inject spec: {e}")))?;
            }
            "--retries" => {
                i += 1;
                retries = Some(parse_flag_value(&args, i, "--retries", "a number")?);
            }
            "all" => experiments.extend(Experiment::ALL),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            name => match Experiment::from_name(name) {
                Some(e) => experiments.push(e),
                None => return Err(CliError::config(format!("unknown experiment '{name}'"))),
            },
        }
        i += 1;
    }
    if experiments.is_empty() {
        experiments.extend(Experiment::ALL);
    }

    std::fs::create_dir_all(&out_dir)
        .map_err(|e| CliError::io("cannot create the output directory", &out_dir, &e))?;

    // One cache instance is shared by every experiment of the invocation, so
    // e.g. `experiments fig1 uit --cache DIR` warms each workload once.
    let cache: Option<std::sync::Arc<CheckpointCache>> = match &cache_dir {
        Some(dir) => {
            let c = CheckpointCache::open(dir).map_err(|e| {
                CliError::io(
                    "cannot open the checkpoint cache",
                    &dir.display().to_string(),
                    &e,
                )
            })?;
            Some(std::sync::Arc::new(c))
        }
        None => None,
    };
    let mut ctx = ExperimentCtx::new(&opts).with_cache(cache.as_ref());
    ctx.journal_dir = journal_dir;
    ctx.sample.resume = resume;
    ctx.sample.faults = faults;
    if let Some(n) = retries {
        ctx.sample.retry.max_attempts = n.max(1);
    }

    let (mut partial_points, mut error_points) = (0usize, 0usize);
    for experiment in experiments {
        let started = std::time::Instant::now();
        eprintln!("== running {} ...", experiment.name());
        let report = experiment.run(&ctx);
        // Only the `sample` report carries these: how many of its points
        // came back partial or failed.
        let count =
            |key: &str| -> usize { report.meta(key).and_then(|v| v.parse().ok()).unwrap_or(0) };
        partial_points += count("partial_points");
        error_points += count("error_points");
        let elapsed = started.elapsed();
        let rendered = report.render_text();
        println!("{rendered}");
        println!(
            "[{} finished in {:.1}s]\n",
            experiment.name(),
            elapsed.as_secs_f64()
        );
        let path = format!("{out_dir}/{}.txt", experiment.name());
        let mut file = std::fs::File::create(&path)
            .map_err(|e| CliError::io("cannot create the report file", &path, &e))?;
        file.write_all(rendered.as_bytes())
            .map_err(|e| CliError::io("cannot write the report file", &path, &e))?;
    }
    Ok(if error_points > 0 {
        ExitCode::from(EXIT_SIM_ERROR)
    } else if partial_points > 0 {
        ExitCode::from(EXIT_PARTIAL)
    } else {
        ExitCode::SUCCESS
    })
}

/// The `serve` subcommand: parse flags, start the job server, run until
/// killed.
fn serve(args: &[String]) -> Result<(), CliError> {
    let mut config = ltp_service::ServiceConfig {
        bind: "127.0.0.1:8080".to_string(),
        ..ltp_service::ServiceConfig::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bind" => {
                i += 1;
                config.bind = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| CliError::config("--bind needs host:port"))?;
            }
            "--workers" => {
                i += 1;
                let n: usize = parse_flag_value(args, i, "--workers", "a number")?;
                if n == 0 {
                    return Err(CliError::config("--workers must be at least 1"));
                }
                config.workers = n;
                // Export the worker budget so every in-process pool
                // (`worker_threads` consults LTP_THREADS) agrees with the
                // governor's permit count. Done here, before any thread is
                // spawned.
                std::env::set_var("LTP_THREADS", n.to_string());
            }
            "--max-jobs" => {
                i += 1;
                let n: usize = parse_flag_value(args, i, "--max-jobs", "a number")?;
                if n == 0 {
                    return Err(CliError::config("--max-jobs must be at least 1"));
                }
                config.max_jobs = n;
            }
            "--cache" => {
                i += 1;
                let dir = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| CliError::config("--cache needs a directory"))?;
                config.cache_dir = Some(PathBuf::from(dir));
            }
            "--journal" => {
                i += 1;
                let dir = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| CliError::config("--journal needs a directory"))?;
                config.journal_dir = Some(PathBuf::from(dir));
            }
            "--resume" => {
                i += 1;
                let dir = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| CliError::config("--resume needs a directory"))?;
                config.journal_dir = Some(PathBuf::from(dir));
                config.resume = true;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            flag => return Err(CliError::config(format!("unknown serve flag '{flag}'"))),
        }
        i += 1;
    }

    let server = ltp_service::Server::start(&config).map_err(|e| {
        if e.kind() == std::io::ErrorKind::AddrInUse {
            CliError::config(format!(
                "cannot bind `{}`: the port is already in use \
                 (is another serve instance running? pick a different --bind)",
                config.bind
            ))
        } else {
            CliError::config(format!("cannot bind `{}`: {e}", config.bind))
        }
    })?;
    println!("listening on http://{}", server.addr());
    println!(
        "workers: {} permits, admission cap: {} jobs, cache: {}, journal: {}",
        server.registry().governor().permits(),
        config.max_jobs,
        config
            .cache_dir
            .as_deref()
            .map_or_else(|| "off".to_string(), |d| d.display().to_string()),
        config
            .journal_dir
            .as_deref()
            .map_or_else(|| "off".to_string(), |d| d.display().to_string()),
    );
    std::io::stdout().flush().ok();
    // The accept loop lives on its own thread; the server runs until the
    // process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Parses the value following a flag, with a usage error naming the flag.
fn parse_flag_value<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    flag: &str,
    what: &str,
) -> Result<T, CliError> {
    args.get(i)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CliError::config(format!("{flag} needs {what}")))
}
