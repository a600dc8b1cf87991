//! What a result is recorded against: the source revision and the host.

use std::io::Write as _;
use std::path::Path;

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out git revision, read from `.git` without running git;
/// `None` outside a git checkout.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == r).then(|| id.to_string())
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The revision plus a host fingerprint (`nproc`, CPU model, rustc), as a
/// JSON object.
pub fn fingerprint(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rev = git_revision(root).map_or("null".into(), |r| json_str(&r));
    format!(
        "{{\"revision\": {rev}, \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC_VERSION"))
    )
}

/// Append one line to the results file; a failure to record is reported
/// but does not fail the run.
pub fn record(path: &Path, line: &str) {
    let r = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = r {
        eprintln!("perfbench: recording to {}: {e}", path.display());
    }
}

/// CPU time this thread has used, in ns (`CLOCK_THREAD_CPUTIME_ID`). The
/// benchmark times with it rather than with the wall clock: on a shared
/// host the thread also waits for a CPU, and that wait, which is not the
/// program's, varied far more between runs than the time on the CPU.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux), and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of one [`reference_task`] on the reference host, which defines
/// the seconds the end-to-end times are given in; see [`Speedometer`].
const REFERENCE_TASK_NS: f64 = 1.0e6;
/// The reference task's tables, in words: 4 KiB, within the L1 cache, and
/// 256 KiB, past it.
const TABLE_WORDS: [usize; 2] = [1 << 9, 1 << 15];
/// Steps of the reference task on each table.
const TASK_STEPS: u64 = 50_000;
/// CPU time of the measured work between two samples of the host's speed.
const SAMPLE_EVERY_NS: u64 = 50_000_000;

/// A fixed task that uses none of the crates' code: random reads and
/// writes over a small table, with data-dependent branches and a
/// dependent multiply chain, as an interpreter loop does.
fn reference_task(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for i in 0..TASK_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize ^ acc as usize) & mask;
        let v = table[j];
        table[j] = if v & 1 == 0 {
            v.wrapping_add(x | 1)
        } else {
            v.rotate_left(7) ^ i
        };
        acc = match x >> 62 {
            0 => acc.wrapping_mul(0x2545_F491_4F6C_DD1D),
            1 => acc.wrapping_add(v),
            2 => acc ^ v >> 3,
            _ => acc.rotate_left(11),
        };
    }
    std::hint::black_box(acc)
}

/// Measures how fast the host runs now, against the reference host.
///
/// A shared host's speed drifts with the load other machines put on it:
/// on a two-CPU virtual machine the same `figure_sweep` run took from 1×
/// to 2.3× the CPU time within an hour, and runs made minutes apart spread
/// 20% between quartiles. A run
/// therefore times the reference task every [`SAMPLE_EVERY_NS`] of its
/// work, and gives its end-to-end times multiplied by the median speed:
/// seconds on a host where the reference task takes 1 ms. That brought the
/// spread of those runs to 4–12%. The task uses none of the crates' code,
/// so a change to them moves the times as before.
pub struct Speedometer {
    tables: [Vec<u64>; 2],
    /// Reference task CPU times, in ns.
    samples: Vec<u64>,
    /// When the last sample ended, in thread CPU ns.
    last: u64,
    /// CPU time spent sampling, in ns.
    pub own_ns: u64,
}

impl Speedometer {
    pub fn new() -> Self {
        Speedometer {
            tables: TABLE_WORDS.map(|n| vec![1; n]),
            samples: Vec::new(),
            last: cpu_ns(),
            own_ns: 0,
        }
    }

    /// Time the reference task once.
    pub fn sample(&mut self) {
        let t = cpu_ns();
        for table in &mut self.tables {
            reference_task(table);
        }
        self.last = cpu_ns();
        self.samples.push(self.last - t);
        self.own_ns += self.last - t;
    }

    /// Time the reference task if [`SAMPLE_EVERY_NS`] has passed since the
    /// last sample.
    pub fn tick(&mut self) {
        if cpu_ns() - self.last >= SAMPLE_EVERY_NS {
            self.sample();
        }
    }

    /// The host's speed over the samples so far, relative to the reference
    /// host: a time in CPU seconds here times this speed is the time there.
    pub fn speed(&self) -> f64 {
        let mut ns = self.samples.clone();
        ns.sort_unstable();
        ns.get(ns.len() / 2)
            .map_or(1.0, |&m| REFERENCE_TASK_NS / m as f64)
    }

    /// How many samples were taken.
    pub fn count(&self) -> usize {
        self.samples.len()
    }
}
