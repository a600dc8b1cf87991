//! Bad input to the command-line tools is a usage error — exit status 2
//! and a message — never a panic (exit status 101).

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory for one test, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cwsp-cli-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// Run `bin` with `args`, keeping the harness record, the disk cache and
    /// any profile output out of the checkout.
    fn run(&self, bin: &str, args: &[&str]) -> Output {
        Command::new(bin)
            .args(args)
            .env("CWSP_HARNESS_JSON", self.0.join("harness.json"))
            .env("CWSP_CACHE", "0")
            .env("CWSP_PROFILE_DIR", self.0.join("profiles"))
            .output()
            .expect("run the binary")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

#[test]
fn lint_of_a_module_without_main_exits_2() {
    let scratch = Scratch::new("lint");
    let file = scratch.0.join("no_main.ir");
    std::fs::write(
        &file,
        "module m\nfn foo(params=0) regs=2 {\nbb0:\n    r1 = add r0, 1\n    halt\n}\n",
    )
    .unwrap();
    let out = scratch.run(env!("CARGO_BIN_EXE_cwsp-lint"), &[file.to_str().unwrap()]);
    assert_usage_error(&out, "no entry function");
}

#[test]
fn profile_of_an_unknown_workload_exits_2() {
    let scratch = Scratch::new("profile");
    let out = scratch.run(env!("CARGO_BIN_EXE_profile"), &["no-such-app"]);
    assert_usage_error(&out, "no-such-app");
}
