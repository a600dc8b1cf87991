//! Pinned race-detector output.
//!
//! Every module of a fixed corpus is run through
//! [`races::check_concurrency`] at 2 and 4 cores, and the diagnostics
//! (message, location, region, witness) and [`RaceStats`] of both runs are
//! folded into one 64-bit digest per module. The corpus covers clean and
//! racy code: seeded genprog modules with calls and seeded concurrent
//! modules, raw and compiled; concurrent modules with an unsynchronized
//! store planted (`inject_unsynced_store`); `multicore::all(4)`; the 38
//! apps; and compiled concurrent and multicore modules with the boundary
//! before each atomic deleted, which leaves stores escaping from open
//! regions. The digests in `tests/race_digests.txt` were recorded from the
//! detector as it stood before its witnesses were rendered on demand; any
//! change to what it reports shows here as a mismatch.
//!
//! The digest is FNV-1a over the `Debug` text of the diagnostics and the
//! stats. When the detector's output changes on purpose,
//! `cargo test -p cwsp-analyzer --test race_digest -- --ignored --nocapture print_race_digests`
//! prints the new table.

use cwsp_analyzer::races::{self, RaceOptions};
use cwsp_analyzer::RaceStats;
use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp_core::genprog::ProgramSpec;
use cwsp_core::genprog::{generate, generate_concurrent, inject_unsynced_store, ConcSpec};
use cwsp_ir::inst::Inst;
use cwsp_ir::module::Module;

const PINNED: &str = include_str!("race_digests.txt");

/// Seeds of the pinned corpus, per generator.
const GEN_SEEDS: u64 = 40;
const CONC_SEEDS: u64 = 30;

/// Seeds of the large corpus (about 2,000 modules), per generator.
const LARGE_GEN_SEEDS: u64 = 400;
const LARGE_CONC_SEEDS: u64 = 240;
/// Digest over every module of the large corpus, in corpus order, and its
/// finding counts at 2 and 4 cores.
const LARGE_DIGEST: &str = "cd2a2a6793442fac";
const LARGE_RACES: usize = 25083;
const LARGE_ESCAPES: usize = 758;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Findings of one module at 2 and 4 cores.
struct Outcome {
    digest: u64,
    /// `R-data-race` and `I5-open-escape` diagnostics emitted.
    races: usize,
    escapes: usize,
}

fn outcome(m: &Module) -> Outcome {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let (mut races, mut escapes) = (0, 0);
    for cores in [2, 4] {
        let ra = races::check_concurrency(
            m,
            &RaceOptions {
                cores,
                ..RaceOptions::default()
            },
        );
        let stats: RaceStats = ra.stats;
        fnv1a(&mut h, format!("{:?}", ra.diagnostics).as_bytes());
        fnv1a(&mut h, format!("{stats:?}").as_bytes());
        races += ra
            .diagnostics
            .iter()
            .filter(|d| d.code == "R-data-race")
            .count();
        escapes += ra
            .diagnostics
            .iter()
            .filter(|d| d.code == "I5-open-escape")
            .count();
    }
    Outcome {
        digest: h,
        races,
        escapes,
    }
}

fn compile(m: &Module) -> Module {
    CwspCompiler::new(CompileOptions::default())
        .compile(m)
        .module
}

/// `m` with every boundary that directly precedes an atomic removed: the
/// store before the atomic then reaches its publication point with the
/// region still open.
fn delete_boundaries_before_atomics(m: &Module) -> Module {
    let mut out = m.clone();
    let ids: Vec<_> = out.iter_functions().map(|(id, _)| id).collect();
    for id in ids {
        for block in &mut out.function_mut(id).blocks {
            let mut i = 0;
            while i + 1 < block.insts.len() {
                let boundary = matches!(block.insts[i], Inst::Boundary { .. });
                if boundary && matches!(block.insts[i + 1], Inst::AtomicRmw { .. }) {
                    block.insts.remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }
    out
}

fn corpus(gen_seeds: u64, conc_seeds: u64) -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = Vec::new();
    let both = |out: &mut Vec<(String, Module)>, name: String, m: Module| {
        out.push((format!("{name}/compiled"), compile(&m)));
        out.push((format!("{name}/raw"), m));
    };
    for w in cwsp_workloads::all() {
        both(&mut out, format!("app/{}", w.name), w.module);
    }
    for (name, m) in cwsp_workloads::multicore::all(4) {
        let deleted = delete_boundaries_before_atomics(&compile(&m));
        out.push((format!("multicore/{name}/no-boundary"), deleted));
        both(&mut out, format!("multicore/{name}"), m);
    }
    let spec = ProgramSpec {
        calls: true,
        ..Default::default()
    };
    for seed in 0..gen_seeds {
        both(&mut out, format!("genprog/{seed}"), generate(&spec, seed));
    }
    for seed in 0..conc_seeds {
        let m = generate_concurrent(&ConcSpec::default(), seed);
        let mut mutant = m.clone();
        if inject_unsynced_store(&mut mutant).is_some() {
            both(&mut out, format!("concurrent/{seed}/unsynced"), mutant);
        }
        let deleted = delete_boundaries_before_atomics(&compile(&m));
        out.push((format!("concurrent/{seed}/no-boundary"), deleted));
        both(&mut out, format!("concurrent/{seed}"), m);
    }
    out
}

fn outcomes(gen_seeds: u64, conc_seeds: u64) -> Vec<(String, Outcome)> {
    corpus(gen_seeds, conc_seeds)
        .into_iter()
        .map(|(name, m)| {
            let o = outcome(&m);
            (name, o)
        })
        .collect()
}

#[test]
fn race_reports_match_pinned_digests() {
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
        "{} of {} race reports differ from the pinned output:\n{}",
        mismatched.len(),
        actual.len(),
        mismatched.join("\n")
    );
    let races: usize = actual.iter().map(|(_, o)| o.races).sum();
    let escapes: usize = actual.iter().map(|(_, o)| o.escapes).sum();
    assert!(races > 0, "the corpus must exercise R-data-race");
    assert!(escapes > 0, "the corpus must exercise I5-open-escape");
}

/// The same contract over about 2,000 modules, pinned as one digest.
#[test]
#[ignore]
fn large_corpus_race_reports_match_pinned_digest() {
    let actual = outcomes(LARGE_GEN_SEEDS, LARGE_CONC_SEEDS);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (name, o) in &actual {
        fnv1a(&mut h, format!("{name} {:016x}\n", o.digest).as_bytes());
    }
    let races: usize = actual.iter().map(|(_, o)| o.races).sum();
    let escapes: usize = actual.iter().map(|(_, o)| o.escapes).sum();
    println!(
        "{} modules: digest {h:016x}, {races} R-data-race, {escapes} I5-open-escape",
        actual.len()
    );
    assert_eq!(format!("{h:016x}"), LARGE_DIGEST);
    assert_eq!((races, escapes), (LARGE_RACES, LARGE_ESCAPES));
}

/// Prints the digest table in the format of `tests/race_digests.txt`.
#[test]
#[ignore]
fn print_race_digests() {
    for (name, o) in outcomes(GEN_SEEDS, CONC_SEEDS) {
        println!("{name} {:016x}", o.digest);
    }
}
