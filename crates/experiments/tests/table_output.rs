//! The `table3` binary's exit status follows its output file: it prints
//! the table either way, and exits non-zero when the file could not be
//! written.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("px-table-output-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn table3(out: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table3"))
        .arg("--out")
        .arg(out)
        .output()
        .unwrap()
}

#[test]
fn unwritable_out_dir_warns_and_exits_nonzero() {
    let dir = scratch_dir("blocked");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").unwrap();
    let output = table3(&file.join("results"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "status {}", output.status);
    assert!(
        stderr.contains("warning: could not write table3.md"),
        "{stderr}"
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("Table III"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writable_out_dir_writes_the_table_and_exits_zero() {
    let dir = scratch_dir("writable");
    let output = table3(&dir);
    assert!(output.status.success(), "status {}", output.status);
    let written = std::fs::read_to_string(dir.join("table3.md")).unwrap();
    assert_eq!(
        written,
        poison_experiments::table3::to_markdown(),
        "the file holds the printed table"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
