//! `sgr restore` on degenerate input: a hidden graph it cannot crawl is
//! a typed error with a non-zero exit, never a panic.

use std::process::Command;

#[test]
fn restore_of_an_empty_graph_fails_with_a_message() {
    let dir = std::env::temp_dir().join(format!("sgr-cli-restore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("empty.edges");
    std::fs::write(&graph, "").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_sgr"))
        .args(["restore", "--graph"])
        .arg(&graph)
        .arg("--out")
        .arg(dir.join("restored.edges"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("empty hidden graph"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
