//! Pinned analyzer reports, witnesses included.
//!
//! Every module of a fixed corpus is analyzed with every layer on
//! (interprocedural, race and I6) through [`analyze_with`], and again
//! through [`analyze_with_cache`] against one cache shared by the whole
//! corpus, twice: once cold and once served from the cache. Each report's
//! diagnostics (severity, code, location, region, message and witness
//! steps), its function and region counts, and the race and I6 counters
//! are folded into one 64-bit digest per module.
//!
//! The corpus is the 38 apps plus seeded genprog modules with calls and
//! seeded concurrent modules, each compiled, and each compiled module again
//! with two mutations planted: every third `Boundary` deleted, which leaves
//! intra-region antidependences (I1 findings with path witnesses) and
//! missing slices, and the first `Ckpt` of each function dropped, which
//! leaves slots unsynced (I2/I3 findings with witnesses). The digests in
//! `tests/report_digests.txt` were recorded from the analyzer as it stood
//! before its I1 witnesses were rendered on demand and its per-function
//! facts were shared between passes; any change to what it reports shows
//! here as a mismatch.
//!
//! The digest is FNV-1a over the `Debug` text of the diagnostics and
//! counters (analysis time excluded). When the analyzer's output changes on
//! purpose,
//! `cargo test -p cwsp-analyzer --test report_digest -- --ignored --nocapture print_report_digests`
//! prints the new table.

use cwsp_analyzer::{analyze_with, analyze_with_cache, AnalysisCache, AnalyzeOptions, Report};
use cwsp_analyzer::{PersistCounters, RaceStats};
use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp_compiler::slice::SliceTable;
use cwsp_core::genprog::{generate, generate_concurrent, ConcSpec, ProgramSpec};
use cwsp_ir::inst::Inst;
use cwsp_ir::module::Module;

const PINNED: &str = include_str!("report_digests.txt");

/// Seeds of the pinned corpus, per generator.
const GEN_SEEDS: u64 = 150;
const CONC_SEEDS: u64 = 50;

/// Seeds of the large corpus (about 2,000 modules), per generator.
const LARGE_GEN_SEEDS: u64 = 750;
const LARGE_CONC_SEEDS: u64 = 250;
/// Digest over every module of the large corpus, in corpus order, and the
/// number of witnessed I1 findings it reports.
const LARGE_DIGEST: &str = "4b67e0513baa6a69";
const LARGE_I1_WITNESSES: usize = 2822;

/// Every third boundary of a module is deleted.
const BOUNDARY_STRIDE: usize = 3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn options() -> AnalyzeOptions {
    AnalyzeOptions {
        interproc: true,
        races: true,
        persist: true,
        cores: 2,
    }
}

/// A compiled module under test: the module and its slice table.
struct Subject {
    module: Module,
    slices: SliceTable,
}

/// What one module's reports pin.
struct Outcome {
    digest: u64,
    /// `I1-*` findings carrying a witness path, in the `analyze_with` report.
    i1_witnesses: usize,
    /// `I2-*`/`I3-*` findings carrying a witness path, likewise.
    i2_witnesses: usize,
}

fn fold(
    h: &mut u64,
    (report, races, persist): &(Report, Option<RaceStats>, Option<PersistCounters>),
) {
    fnv1a(h, format!("{:?}", report.diagnostics).as_bytes());
    let c = &report.counters;
    let counts = (c.functions, c.regions_total, c.regions_proven);
    fnv1a(h, format!("{counts:?} {races:?} {persist:?}").as_bytes());
}

fn outcome(s: &Subject, cache: &mut AnalysisCache) -> Outcome {
    let opts = options();
    let mut h = 0xcbf2_9ce4_8422_2325;
    let fresh = analyze_with(&s.module, &s.slices, &opts);
    fold(&mut h, &fresh);
    for _ in 0..2 {
        fold(
            &mut h,
            &analyze_with_cache(&s.module, &s.slices, &opts, cache),
        );
    }
    let witnessed = |prefix: &str| {
        fresh
            .0
            .diagnostics
            .iter()
            .filter(|d| d.code.starts_with(prefix) && d.witness.is_some())
            .count()
    };
    Outcome {
        digest: h,
        i1_witnesses: witnessed("I1-"),
        i2_witnesses: witnessed("I2-") + witnessed("I3-"),
    }
}

/// `m` with every `BOUNDARY_STRIDE`-th boundary (counting from the first,
/// in function, block and instruction order) deleted, and the first `Ckpt`
/// of each function dropped.
fn mutate(m: &Module) -> Module {
    let mut out = m.clone();
    let ids: Vec<_> = out.iter_functions().map(|(id, _)| id).collect();
    let mut boundaries = 0;
    for id in ids {
        let mut dropped_ckpt = false;
        for block in &mut out.function_mut(id).blocks {
            block.insts.retain(|inst| match inst {
                Inst::Boundary { .. } => {
                    boundaries += 1;
                    boundaries % BOUNDARY_STRIDE != 1
                }
                Inst::Ckpt { .. } if !dropped_ckpt => {
                    dropped_ckpt = true;
                    false
                }
                _ => true,
            });
        }
    }
    out
}

fn corpus(gen_seeds: u64, conc_seeds: u64) -> Vec<(String, Subject)> {
    let mut raw: Vec<(String, Module)> = cwsp_workloads::all()
        .into_iter()
        .map(|w| (format!("app/{}", w.name), w.module))
        .collect();
    let spec = ProgramSpec {
        calls: true,
        ..Default::default()
    };
    raw.extend((0..gen_seeds).map(|s| (format!("genprog/{s}"), generate(&spec, s))));
    raw.extend((0..conc_seeds).map(|s| {
        let m = generate_concurrent(&ConcSpec::default(), s);
        (format!("concurrent/{s}"), m)
    }));
    let mut out = Vec::new();
    for (name, m) in raw {
        let c = CwspCompiler::new(CompileOptions::default()).compile(&m);
        let mutated = Subject {
            module: mutate(&c.module),
            slices: c.slices.clone(),
        };
        out.push((
            format!("{name}/compiled"),
            Subject {
                module: c.module,
                slices: c.slices,
            },
        ));
        out.push((format!("{name}/mutated"), mutated));
    }
    out
}

fn outcomes(gen_seeds: u64, conc_seeds: u64) -> Vec<(String, Outcome)> {
    let mut cache = AnalysisCache::new();
    corpus(gen_seeds, conc_seeds)
        .into_iter()
        .map(|(name, s)| {
            let o = outcome(&s, &mut cache);
            (name, o)
        })
        .collect()
}

#[test]
fn analyzer_reports_match_pinned_digests() {
    let pinned: Vec<(&str, &str)> = PINNED
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.split_once(' ').expect("`<name> <digest>` lines"))
        .collect();
    let actual = outcomes(GEN_SEEDS, CONC_SEEDS);
    assert_eq!(
        actual.len(),
        pinned.len(),
        "corpus size differs from the pinned table"
    );
    let mismatched: Vec<String> = actual
        .iter()
        .zip(&pinned)
        .filter(|((name, o), (pname, pd))| name != pname || format!("{:016x}", o.digest) != *pd)
        .map(|((name, o), (pname, pd))| format!("{name} {:016x} (pinned: {pname} {pd})", o.digest))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} of {} analyzer reports differ from the pinned output:\n{}",
        mismatched.len(),
        actual.len(),
        mismatched.join("\n")
    );
    let i1: usize = actual.iter().map(|(_, o)| o.i1_witnesses).sum();
    let i2: usize = actual.iter().map(|(_, o)| o.i2_witnesses).sum();
    assert!(i1 > 0, "the corpus must render I1 witnesses");
    assert!(i2 > 0, "the corpus must render I2/I3 witnesses");
}

/// The same contract over about 2,000 modules, pinned as one digest.
#[test]
#[ignore]
fn large_corpus_reports_match_pinned_digest() {
    let actual = outcomes(LARGE_GEN_SEEDS, LARGE_CONC_SEEDS);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (name, o) in &actual {
        fnv1a(&mut h, format!("{name} {:016x}\n", o.digest).as_bytes());
    }
    let i1: usize = actual.iter().map(|(_, o)| o.i1_witnesses).sum();
    println!(
        "{} modules: digest {h:016x}, {i1} witnessed I1 findings",
        actual.len()
    );
    assert_eq!(format!("{h:016x}"), LARGE_DIGEST);
    assert_eq!(i1, LARGE_I1_WITNESSES);
}

/// Prints the digest table in the format of `tests/report_digests.txt`.
#[test]
#[ignore]
fn print_report_digests() {
    for (name, o) in outcomes(GEN_SEEDS, CONC_SEEDS) {
        println!("{name} {:016x}", o.digest);
    }
}
