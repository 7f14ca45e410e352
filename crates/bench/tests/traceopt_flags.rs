//! Integration tests for the shared figure-binary flags
//! (`fred_bench::traceopt`), driven through a real binary.

use std::process::Command;

fn fig9() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig9"))
}

#[test]
fn prof_alone_prints_the_profiler_table() {
    let out = fig9().arg("--prof").output().unwrap();
    assert!(out.status.success(), "fig9 --prof failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("profiler sites:"),
        "no profiler table on stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("solver.solve"),
        "profiler table lacks the solver site:\n{stderr}"
    );
}

#[test]
fn threads_metrics_and_prom_are_not_shared_flags() {
    // `--snapshot-at` and `--restore` belong to `cluster_sweep`,
    // `--threads` to `dse_sweep`; the other two are gone.
    for flag in [
        "--threads",
        "--metrics",
        "--prom",
        "--snapshot-at",
        "--restore",
    ] {
        let out = fig9().args([flag, "4"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "fig9 accepted {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "{stderr}"
        );
    }
}
