//! `cwsp-fuzz` — the resumable sharded differential-fuzzing farm CLI.
//!
//! ```text
//! cwsp-fuzz [--shards N] [--budget M] [--seed-base S] [--conc-every K]
//!           [--inject-every K] [--schedules N] [--dir PATH] [--resume]
//!           [--check] [--json]
//! ```
//!
//! Runs the campaign described by the flags against the corpus spine under
//! `--dir` (default `results/fuzz`). The run is always crash-durable:
//! corpus, shard progress, and coverage land in one atomic spine batch per
//! module, so a `kill -9` loses at most the module in flight and a second
//! invocation with the same flags completes exactly the missing seeds.
//! `--resume` only changes intent reporting — without it a fresh campaign
//! is expected and any pre-existing progress is called out.
//!
//! `--check` skips fuzzing and audits the existing corpus against its
//! manifest (lost or duplicated entries fail the exit code).
//!
//! A campaign run merges its counters into the `analyzer.fuzz` section of
//! the harness report (`results/BENCH_harness.json`, or the file
//! `CWSP_HARNESS_JSON` names).
//!
//! Exit codes: 0 — clean; 1 — divergences found (or audit failure);
//! 2 — usage error.

use cwsp_bench::engine::{merge_harness_section, repo_results_dir};
use cwsp_bench::fuzz::{self, FuzzConfig, FuzzReport};
use cwsp_bench::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    cfg: FuzzConfig,
    dir: PathBuf,
    resume: bool,
    check_only: bool,
    json: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cwsp-fuzz [--shards N] [--budget M] [--seed-base S] [--conc-every K]\n\
         \x20                [--inject-every K] [--schedules N] [--dir PATH] [--resume]\n\
         \x20                [--check] [--json]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        cfg: FuzzConfig::default(),
        dir: repo_results_dir().join("fuzz"),
        resume: false,
        check_only: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> Result<u64, ExitCode> {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(usage)
        };
        match arg.as_str() {
            "--shards" => opts.cfg.shards = num(&mut args)?.max(1),
            "--budget" => opts.cfg.budget = num(&mut args)?,
            "--seed-base" => opts.cfg.seed_base = num(&mut args)?,
            "--conc-every" => opts.cfg.conc_every = num(&mut args)?,
            "--inject-every" => opts.cfg.inject_every = num(&mut args)?,
            "--schedules" => opts.cfg.schedules = num(&mut args)?.max(1) as usize,
            "--max-steps" => opts.cfg.max_steps = num(&mut args)?.max(1),
            "--dir" => opts.dir = PathBuf::from(args.next().ok_or_else(usage)?),
            "--resume" => opts.resume = true,
            "--check" => opts.check_only = true,
            "--json" => opts.json = true,
            "--help" | "-h" => return Err(usage()),
            other => {
                eprintln!("cwsp-fuzz: unknown flag {other:?}");
                return Err(usage());
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    if opts.check_only {
        let check = match fuzz::manifest_check(&opts.dir, &opts.cfg) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cwsp-fuzz: audit failed: {e}");
                return ExitCode::from(2);
            }
        };
        if opts.json {
            print!(
                "{}",
                fuzz::report_json(&fuzz::FuzzReport::default(), &check)
            );
        } else {
            println!(
                "corpus audit: {}/{} present, {} duplicated, {} missing, {} divergences",
                check.present,
                check.expected,
                check.duplicated,
                check.missing.len(),
                check.divergences
            );
        }
        return if check.is_complete() && check.divergences == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let report = match fuzz::run(&opts.dir, &opts.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cwsp-fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    publish_harness(&report);
    if report.resumed > 0 && !opts.resume {
        eprintln!(
            "cwsp-fuzz: note: {} seeds already in the corpus were skipped (resumed campaign; \
             pass --resume to silence this)",
            report.resumed
        );
    }
    let check = match fuzz::manifest_check(&opts.dir, &opts.cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cwsp-fuzz: audit failed: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        print!("{}", fuzz::report_json(&report, &check));
    } else {
        print!("{}", fuzz::render_report(&report));
        println!(
            "corpus audit: {}/{} present, {} duplicated, {} missing",
            check.present,
            check.expected,
            check.duplicated,
            check.missing.len()
        );
    }
    if report.divergences.is_empty() && check.is_complete() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Surface farm counters next to the analyzer's in the harness report
/// (deep-merged: the lint subsection survives).
fn publish_harness(report: &FuzzReport) {
    merge_harness_section(
        "analyzer",
        Value::Obj(vec![(
            "fuzz".into(),
            Value::Obj(vec![
                ("run_fp".into(), Value::Int(report.run_fp)),
                ("completed".into(), Value::Int(report.completed)),
                ("resumed".into(), Value::Int(report.resumed)),
                ("corpus".into(), Value::Int(report.corpus_len)),
                (
                    "divergences".into(),
                    Value::Int(report.divergences.len() as u64),
                ),
                ("injected".into(), Value::Int(report.injected)),
                ("injected_caught".into(), Value::Int(report.injected_caught)),
                ("incr_hits".into(), Value::Int(report.incr_hits)),
                ("incr_misses".into(), Value::Int(report.incr_misses)),
            ]),
        )]),
    );
}
