//! Pinned output of one analysis cache serving a stream of re-lints.
//!
//! The stream mirrors a lint front-end or the fuzz farm: a corpus of
//! genprog modules with calls, concurrent modules, `multicore::all(2)` and
//! a few apps is walked in a seeded shuffled order, pass after pass. A few
//! genprog modules also appear under a second name and take the same touch
//! as their original in every pass: with the same globals the twins share
//! cache entries, which pass from one module's stamp to the other's and
//! age out under either. Each
//! step touches one function of a module (`touch_function`), recompiles it
//! and analyzes it with the interprocedural and race layers on through a
//! single [`AnalysisCache`]. Every step pins a digest of its report (text
//! and JSON, wall time zeroed) and the cache's cumulative [`IncrStats`]
//! after it — hits, misses, invalidations and evictions — so both what the
//! cached analysis reports and what the cache keeps or drops are fixed.
//! Enough passes run that touched bodies from the first passes age out.
//!
//! The table in `tests/cache_stream.txt` was recorded from the analyzer as
//! it stood before eviction was scoped to the running module. When the
//! output changes on purpose,
//! `cargo test -p cwsp-analyzer --test cache_stream -- --ignored --nocapture`
//! prints the new table.

use cwsp_analyzer::{AnalysisCache, AnalyzeOptions};
use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp_core::genprog::{generate, generate_concurrent, touch_function, ConcSpec, ProgramSpec};
use cwsp_core::prng::SplitMix64;
use cwsp_ir::module::{FuncId, Module};

const PINNED: &str = include_str!("cache_stream.txt");

const PASSES: u64 = 7;
const GEN_MODULES: u64 = 16;
const CONC_MODULES: u64 = 6;
const APPS: usize = 4;
/// Genprog modules that also appear under a second name.
const TWINS: u64 = 4;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn corpus() -> Vec<Module> {
    let spec = ProgramSpec {
        calls: true,
        ..Default::default()
    };
    let mut out: Vec<Module> = (0..GEN_MODULES).map(|s| generate(&spec, s)).collect();
    for s in 0..TWINS {
        let mut twin = generate(&spec, s);
        twin.name = format!("{}-twin", twin.name);
        out.push(twin);
    }
    out.extend((0..CONC_MODULES).map(|s| generate_concurrent(&ConcSpec::default(), s)));
    out.extend(
        cwsp_workloads::multicore::all(2)
            .into_iter()
            .map(|(_, m)| m),
    );
    out.extend(
        cwsp_workloads::all()
            .into_iter()
            .take(APPS)
            .map(|w| w.module),
    );
    out
}

/// One line per step: `pass/module report-digest hits misses invalidations
/// evicted`.
fn stream() -> Vec<String> {
    let corpus = corpus();
    let opts = AnalyzeOptions {
        interproc: true,
        races: true,
        ..AnalyzeOptions::default()
    };
    let compiler = CwspCompiler::new(CompileOptions::default());
    let mut cache = AnalysisCache::new();
    let mut rng = SplitMix64::seed_from_u64(0x5eed);
    let mut lines = Vec::new();
    for pass in 0..PASSES {
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        // One touch per module, which a twin shares with its original.
        let touches: Vec<(usize, u64)> = corpus
            .iter()
            .map(|m| (rng.index(m.function_count()), rng.next_u64()))
            .collect();
        for i in order {
            let module = &corpus[i];
            let twin_of = i
                .checked_sub(GEN_MODULES as usize)
                .filter(|&t| t < TWINS as usize);
            let (func, salt) = touches[twin_of.unwrap_or(i)];
            let mut touched = module.clone();
            touch_function(&mut touched, FuncId(func as u32), salt);
            let compiled = compiler.compile(&touched);
            let (mut report, stats, _) = cwsp_analyzer::analyze_with_cache(
                &compiled.module,
                &compiled.slices,
                &opts,
                &mut cache,
            );
            report.counters.analysis_ns = 0;
            let mut h = 0xcbf2_9ce4_8422_2325;
            fnv1a(&mut h, report.render_text().as_bytes());
            fnv1a(&mut h, report.to_json().as_bytes());
            fnv1a(&mut h, format!("{stats:?}").as_bytes());
            let st = cache.stats();
            lines.push(format!(
                "{pass}/{} {h:016x} {} {} {} {}",
                module.name, st.hits, st.misses, st.invalidations, st.evicted
            ));
        }
    }
    lines
}

#[test]
fn cache_stream_matches_pinned_reports_and_stats() {
    let pinned: Vec<&str> = PINNED.lines().filter(|l| !l.is_empty()).collect();
    let actual = stream();
    assert_eq!(
        actual.len(),
        pinned.len(),
        "stream length differs from the pinned table"
    );
    let mismatched: Vec<String> = actual
        .iter()
        .zip(&pinned)
        .filter(|(a, p)| a != p)
        .map(|(a, p)| format!("{a} (pinned: {p})"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} of {} steps differ from the pinned stream:\n{}",
        mismatched.len(),
        actual.len(),
        mismatched.join("\n")
    );
    let last: Vec<u64> = actual
        .last()
        .unwrap()
        .split(' ')
        .skip(2)
        .map(|v| v.parse().unwrap())
        .collect();
    assert!(last[0] > 0, "the stream must hit");
    assert!(last[2] > 0, "the stream must invalidate");
    assert!(last[3] > 0, "the stream must evict");
}

/// Prints the stream in the format of `tests/cache_stream.txt`.
#[test]
#[ignore]
fn print_cache_stream() {
    for line in stream() {
        println!("{line}");
    }
}
