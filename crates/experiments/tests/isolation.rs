//! Process isolation on the sweep binaries: every figure binary and
//! `churn` answer to `worker`, so `BGPSIM_ISOLATE=1` sweeps produce the
//! in-process output byte for byte, and a sweep whose job is poisoned
//! exits 1 with the runner's error instead of a panic.

use std::io::Write;
use std::process::{Command, Output, Stdio};

const SWEEP_BINARIES: &[&str] = &[
    env!("CARGO_BIN_EXE_fig4"),
    env!("CARGO_BIN_EXE_fig5"),
    env!("CARGO_BIN_EXE_fig6"),
    env!("CARGO_BIN_EXE_fig7"),
    env!("CARGO_BIN_EXE_fig8"),
    env!("CARGO_BIN_EXE_fig9"),
    env!("CARGO_BIN_EXE_supplement"),
    env!("CARGO_BIN_EXE_all_figures"),
    env!("CARGO_BIN_EXE_churn"),
];

/// A command for `bin` with every `BGPSIM_*` variable of the test
/// environment removed, so only what a test sets applies.
fn clean(bin: &str) -> Command {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars() {
        if key.starts_with("BGPSIM_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("BGPSIM_JOBS", "2");
    cmd
}

fn run(cmd: &mut Command) -> Output {
    cmd.stdin(Stdio::null())
        .output()
        .expect("spawn sweep binary")
}

#[test]
fn every_sweep_binary_dispatches_worker() {
    for bin in SWEEP_BINARIES {
        let mut child = clean(bin)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn worker");
        child
            .stdin
            .take()
            .expect("worker stdin")
            .write_all(b"not a request")
            .expect("write request");
        let out = child.wait_with_output().expect("worker output");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // A malformed request is answered with a failure verdict: the
        // worker mode ran instead of the argument parser rejecting it.
        assert_eq!(out.status.code(), Some(0), "{bin}: {out:?}");
        assert!(stdout.starts_with("{\"ok\":false"), "{bin}: {stdout}");
    }
}

#[test]
fn isolated_sweep_matches_in_process() {
    let bin = env!("CARGO_BIN_EXE_fig4");
    let in_process = run(clean(bin).arg("quick"));
    let isolated = run(clean(bin).arg("quick").env("BGPSIM_ISOLATE", "1"));
    assert!(in_process.status.success(), "{in_process:?}");
    assert!(isolated.status.success(), "{isolated:?}");
    assert!(!in_process.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&isolated.stdout),
        String::from_utf8_lossy(&in_process.stdout)
    );
}

#[test]
fn poisoned_sweep_job_exits_1_without_a_panic() {
    let out = run(clean(env!("CARGO_BIN_EXE_fig4"))
        .arg("quick")
        .env("BGPSIM_ISOLATE", "1")
        .env("BGPSIM_FAILPOINT", "worker_spawn:err")
        .env("BGPSIM_WORKER_RETRIES", "1"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert!(stderr.contains("sweep failed"), "{stderr}");
    assert!(stderr.contains("job poisoned"), "{stderr}");
}
