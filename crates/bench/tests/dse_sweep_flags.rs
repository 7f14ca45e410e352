//! `dse_sweep`'s own flags, driven through the real binary.

use std::process::Command;

#[test]
fn resume_without_a_checkpoint_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_dse_sweep"))
        .arg("--resume")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--checkpoint"), "{stderr}");
    assert!(out.stdout.is_empty(), "a sweep ran: {out:?}");
}
