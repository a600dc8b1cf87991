//! The cycle-attribution profiler: run workloads with the machine's exact
//! per-cycle profiler and event ring enabled, then write — per (workload,
//! scheme) pair, under `results/profiles/` —
//!
//! * `<app>_<scheme>.profile.txt`  — the flat profile report,
//! * `<app>_<scheme>.profile.json` — the same rows as JSON,
//! * `<app>_<scheme>.trace.json`   — the Chrome trace-event timeline
//!   (load it in Perfetto / `chrome://tracing`; cores and memory
//!   controllers appear as separate tracks).
//!
//! Attribution is exact by construction — one charge per core per cycle —
//! so the summary's coverage column reports the fraction of cycles at
//! resolvable program sites (the rest are `<halted>` drain or pre-frame
//! `<machine>` cycles).
//!
//! ```sh
//! cargo run --release -p cwsp-bench --bin profile            # default apps
//! cargo run --release -p cwsp-bench --bin profile -- namd c  # chosen apps
//! ```
//!
//! Output directory override: `CWSP_PROFILE_DIR`.

use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp_sim::config::SimConfig;
use cwsp_sim::machine::Machine;
use cwsp_sim::scheme::Scheme;
use cwsp_workloads::Workload;
use std::process::ExitCode;

/// Compute-dense, write-heavy, and transactional — three distinct shapes.
const DEFAULT_APPS: [&str; 3] = ["namd", "lbm", "tatp"];

fn main() -> ExitCode {
    // A bad `CWSP_*` value exits 2 here, before any work.
    cwsp_store::config::get();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<String> = if args.is_empty() {
        DEFAULT_APPS.iter().map(|s| (*s).to_string()).collect()
    } else {
        args
    };
    // Resolve every name before any work, so a typo costs nothing.
    let mut workloads = Vec::with_capacity(names.len());
    for name in &names {
        match cwsp_workloads::by_name(name) {
            Some(w) => workloads.push(w),
            None => {
                eprintln!("profile: unknown workload {name:?} (see list_workloads)");
                return ExitCode::from(2);
            }
        }
    }
    cwsp_bench::harness_main("profile", || run(&workloads));
    ExitCode::SUCCESS
}

fn run(workloads: &[Workload]) {
    let dir = cwsp_store::config::get()
        .profile_dir
        .clone()
        .unwrap_or_else(|| cwsp_bench::engine::repo_results_dir().join("profiles"));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let cfg = SimConfig::default();

    println!("\n=== cycle-attribution profiles ===");
    println!(
        "   {:<10} {:<10} {:>12} {:>9}  top site",
        "app", "scheme", "cycles", "coverage"
    );
    for w in workloads {
        // Both schemes run the *compiled* binary, so profiles are
        // line-up-able: same sites, different persist machinery.
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&w.module);
        for scheme in [Scheme::cwsp(), Scheme::Baseline] {
            let mut machine = Machine::new(&compiled.module, &cfg, scheme);
            machine.enable_profiler();
            machine.enable_trace(cwsp_store::config::DEFAULT_TRACE_CAPACITY);
            let r = machine
                .run(u64::MAX, None)
                .unwrap_or_else(|e| panic!("{} {}: {e}", w.name, scheme.name()));
            let flat = machine.flat_profile().expect("profiler was enabled");
            let chrome = machine.chrome_trace().expect("tracing was enabled");

            let stem = format!("{}_{}", w.name, scheme.name());
            let title = format!(
                "{} under {} ({} cycles)",
                w.name,
                scheme.name(),
                r.stats.cycles
            );
            write(
                &dir,
                &format!("{stem}.profile.txt"),
                &flat.render_text(&title, 20),
            );
            write(&dir, &format!("{stem}.profile.json"), &flat.to_json());
            write(&dir, &format!("{stem}.trace.json"), &chrome.to_json());

            let top = flat
                .sorted_rows()
                .into_iter()
                .find(|row| !row.is_synthetic())
                .map(|row| format!("{} ({})", row.site_label(), row.cause))
                .unwrap_or_else(|| "-".to_string());
            println!(
                "   {:<10} {:<10} {:>12} {:>8.1}%  {top}",
                w.name,
                scheme.name(),
                r.stats.cycles,
                flat.coverage() * 100.0,
            );
        }
    }
    println!(
        "--\n   wrote {} files to {}",
        workloads.len() * 6,
        dir.display()
    );
}

fn write(dir: &std::path::Path, file: &str, text: &str) {
    let path = dir.join(file);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
