//! Pinned persist-event stream.
//!
//! Every run of a fixed corpus — the 38 apps under cWSP and under
//! AutoFence, seeded genprog modules under cWSP, and `multicore::all(4)` on
//! four cores — is simulated twice with consumers attached: once with a
//! 65,536-event trace ring plus the flight journal, once with a 64-event
//! ring alone. Each module runs to completion and is also killed at half its
//! fault-free cycle count. The flight journal, both rings' post-mortems, the
//! large ring's Chrome trace JSON and both machines' `SimStats` are folded
//! into one 64-bit digest per run. The digests in
//! `tests/event_stream_digests.txt` were recorded from the simulator as it
//! stood before the trace ring and the journal were fed from one event
//! stream; any change to what either consumer records shows here as a
//! mismatch.
//!
//! The digest is FNV-1a. When the recorded events change on purpose,
//! `cargo test --test event_stream_digest -- --ignored --nocapture` prints
//! the new table.

use cwsp::compiler::autofence;
use cwsp::compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp::core::genprog::generate_default;
use cwsp::ir::module::Module;
use cwsp::sim::config::SimConfig;
use cwsp::sim::machine::Machine;
use cwsp::sim::scheme::Scheme;

const PINNED: &str = include_str!("event_stream_digests.txt");

/// Seeds of the genprog corpus.
const GEN_SEEDS: u64 = 60;
/// The two ring capacities whose post-mortems are pinned.
const SMALL_RING: usize = 64;
const LARGE_RING: usize = 65_536;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Digest of one run (`crash` = kill cycle) with both consumer setups, and
/// the run's cycle count.
fn digest_run(m: &Module, cfg: &SimConfig, scheme: Scheme, crash: Option<u64>) -> (u64, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut both = Machine::new(m, cfg, scheme);
    both.enable_trace(LARGE_RING);
    both.enable_flight().expect("journal opens");
    let r = both.run(u64::MAX, crash).expect("run");
    for rec in both.flight_records() {
        let words = [
            rec.kind as u64,
            rec.core as u64,
            rec.mc as u64,
            rec.logged as u64,
            rec.func.map_or(u64::MAX, u64::from),
            rec.cycle,
            rec.addr,
            rec.region,
        ];
        for w in words {
            fnv1a(&mut h, &w.to_le_bytes());
        }
    }
    let ring = both.trace().expect("ring attached");
    fnv1a(&mut h, ring.post_mortem(LARGE_RING).as_bytes());
    fnv1a(
        &mut h,
        both.chrome_trace()
            .expect("ring attached")
            .to_json()
            .as_bytes(),
    );
    fnv1a(&mut h, format!("{:?} {:?}", r.end, r.stats).as_bytes());

    let mut small = Machine::new(m, cfg, scheme);
    small.enable_trace(SMALL_RING);
    let rs = small.run(u64::MAX, crash).expect("run");
    fnv1a(
        &mut h,
        small.trace().unwrap().post_mortem(SMALL_RING).as_bytes(),
    );
    fnv1a(&mut h, format!("{:?} {:?}", rs.end, rs.stats).as_bytes());
    (h, r.stats.cycles)
}

/// `(name, module, cores, scheme)` for one corpus group.
type Case = (String, Module, usize, Scheme);

fn apps(scheme: Scheme) -> Vec<Case> {
    cwsp::workloads::all()
        .into_iter()
        .map(|w| {
            let m = match scheme {
                Scheme::AutoFence => {
                    let mut m = w.module.clone();
                    autofence::run(&mut m);
                    m
                }
                _ => {
                    CwspCompiler::new(CompileOptions::default())
                        .compile(&w.module)
                        .module
                }
            };
            (format!("{}/app/{}", scheme.name(), w.name), m, 1, scheme)
        })
        .collect()
}

fn genprog() -> Vec<Case> {
    (0..GEN_SEEDS)
        .map(|seed| {
            let m = CwspCompiler::new(CompileOptions::default())
                .compile(&generate_default(seed))
                .module;
            (format!("cwsp/genprog/{seed}"), m, 1, Scheme::cwsp())
        })
        .collect()
}

fn multicore() -> Vec<Case> {
    cwsp::workloads::multicore::all(4)
        .into_iter()
        .map(|(name, m)| {
            let m = CwspCompiler::new(CompileOptions::default())
                .compile(&m)
                .module;
            (format!("cwsp/multicore/{name}"), m, 4, Scheme::cwsp())
        })
        .collect()
}

/// The `full` and `half` digest lines of every case.
fn digests(cases: Vec<Case>) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, m, cores, scheme) in cases {
        let cfg = SimConfig {
            cores,
            ..SimConfig::default()
        };
        let (full, cycles) = digest_run(&m, &cfg, scheme, None);
        let (half, _) = digest_run(&m, &cfg, scheme, Some(cycles / 2));
        out.push((format!("{name}/full"), full));
        out.push((format!("{name}/half"), half));
    }
    out
}

/// Compare `cases` against the pinned lines whose names start with `prefix`.
fn check(prefix: &str, cases: Vec<Case>) {
    let pinned: Vec<(&str, &str)> = PINNED
        .lines()
        .filter(|l| l.starts_with(prefix))
        .map(|l| l.split_once(' ').expect("`<name> <digest>` lines"))
        .collect();
    let actual = digests(cases);
    assert_eq!(
        actual.len(),
        pinned.len(),
        "{prefix}: corpus size differs from the pinned table"
    );
    let mismatched: Vec<String> = actual
        .iter()
        .zip(&pinned)
        .filter(|((name, d), (pname, pd))| name != pname || format!("{d:016x}") != *pd)
        .map(|((name, d), (pname, pd))| format!("{name} {d:016x} (pinned: {pname} {pd})"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} of {} runs differ from the pinned event stream:\n{}",
        mismatched.len(),
        actual.len(),
        mismatched.join("\n")
    );
}

#[test]
fn cwsp_apps_match_pinned_event_stream() {
    check("cwsp/app/", apps(Scheme::cwsp()));
}

#[test]
fn autofence_apps_match_pinned_event_stream() {
    check("autofence/app/", apps(Scheme::AutoFence));
}

#[test]
fn genprog_modules_match_pinned_event_stream() {
    check("cwsp/genprog/", genprog());
}

#[test]
fn multicore_modules_match_pinned_event_stream() {
    check("cwsp/multicore/", multicore());
}

/// Prints the digest table in the format of `tests/event_stream_digests.txt`.
#[test]
#[ignore]
fn print_event_stream_digests() {
    for cases in [
        apps(Scheme::cwsp()),
        apps(Scheme::AutoFence),
        genprog(),
        multicore(),
    ] {
        for (name, d) in digests(cases) {
            println!("{name} {d:016x}");
        }
    }
}
