//! Pinned compiler output.
//!
//! Every module of a fixed corpus — the 38 apps, `multicore::all(4)`, seeded
//! genprog modules with and without calls, seeded concurrent modules, and
//! seeded wide genprog modules whose `main` has more than 300 registers — is
//! compiled under the default options, and the compiled module, its recovery
//! slice table and its static statistics are folded into one 64-bit digest.
//! The digests in `tests/compiler_digests.txt` were recorded from the
//! compiler as it stood before its dataflow analyses were rewritten (the
//! wide modules' before its register sets moved inline); any change to what
//! the compiler emits shows here as a mismatch.
//!
//! The digest is FNV-1a over the `Debug` text of the module, the slice table
//! sorted by region id (a `SliceTable` iterates in hash order, which differs
//! between processes), and the stats. When the compiler's output changes on
//! purpose, `cargo test --test compiler_digest -- --ignored --nocapture`
//! prints the new table.

use cwsp::compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp::core::genprog::{generate, generate_concurrent, ConcSpec, ProgramSpec};
use cwsp::ir::module::Module;

const PINNED: &str = include_str!("compiler_digests.txt");

/// Seeds of the genprog corpus, per generator.
const GEN_SEEDS: u64 = 200;
const CONC_SEEDS: u64 = 60;
const WIDE_SEEDS: u64 = 4;

/// Straight-line segments of a wide module's `main`: about 400 registers,
/// more than a register set holds inline.
const WIDE_SEGMENTS: usize = 200;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn digest(m: &Module) -> u64 {
    let c = CwspCompiler::new(CompileOptions::default()).compile(m);
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut h, format!("{:?}", c.module).as_bytes());
    let mut slices: Vec<_> = c.slices.iter().collect();
    slices.sort_by_key(|(id, _)| **id);
    fnv1a(&mut h, format!("{slices:?}").as_bytes());
    fnv1a(&mut h, format!("{:?}", c.stats).as_bytes());
    h
}

fn corpus() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = cwsp::workloads::all()
        .into_iter()
        .map(|w| (format!("app/{}", w.name), w.module))
        .collect();
    out.extend(
        cwsp::workloads::multicore::all(4)
            .into_iter()
            .map(|(name, m)| (format!("multicore/{name}"), m)),
    );
    for calls in [true, false] {
        let spec = ProgramSpec {
            calls,
            ..Default::default()
        };
        for seed in 0..GEN_SEEDS {
            out.push((
                format!("genprog/calls={calls}/{seed}"),
                generate(&spec, seed),
            ));
        }
    }
    for seed in 0..CONC_SEEDS {
        out.push((
            format!("concurrent/{seed}"),
            generate_concurrent(&ConcSpec::default(), seed),
        ));
    }
    let wide = ProgramSpec {
        segments: WIDE_SEGMENTS,
        ..Default::default()
    };
    for seed in 0..WIDE_SEEDS {
        let m = generate(&wide, seed);
        assert!(m.iter_functions().any(|(_, f)| f.reg_count > 300));
        out.push((format!("genprog/wide/{seed}"), m));
    }
    out
}

fn digests() -> Vec<(String, u64)> {
    corpus()
        .into_iter()
        .map(|(name, m)| {
            let d = digest(&m);
            (name, d)
        })
        .collect()
}

#[test]
fn compiled_modules_and_slices_match_pinned_digests() {
    let pinned: Vec<(&str, &str)> = PINNED
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.split_once(' ').expect("`<name> <digest>` lines"))
        .collect();
    let actual = digests();
    assert_eq!(
        actual.len(),
        pinned.len(),
        "corpus size differs from the pinned table"
    );
    let mismatched: Vec<String> = actual
        .iter()
        .zip(&pinned)
        .filter(|((name, d), (pname, pd))| name != pname || format!("{d:016x}") != *pd)
        .map(|((name, d), (pname, pd))| format!("{name} {d:016x} (pinned: {pname} {pd})"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} of {} compiled modules differ from the pinned output:\n{}",
        mismatched.len(),
        actual.len(),
        mismatched.join("\n")
    );
}

/// Prints the digest table in the format of `tests/compiler_digests.txt`.
#[test]
#[ignore]
fn print_compiler_digests() {
    for (name, d) in digests() {
        println!("{name} {d:016x}");
    }
}
