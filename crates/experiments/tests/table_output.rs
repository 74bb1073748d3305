//! `all_experiments NAME` runs one result: `table3`'s exit status follows
//! its output file (it prints the table either way, and exits non-zero
//! when the file could not be written), and `fig12` writes both panels.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("px-table-output-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn table3(out: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .arg("table3")
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

#[test]
fn a_named_figure_writes_its_panels() {
    let dir = scratch_dir("fig12");
    let output = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args([
            "fig12", "--scale", "0.1", "--trials", "1", "--quiet", "--out",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(output.status.success(), "status {}", output.status);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "fig_12_a_.csv",
            "fig_12_a_.md",
            "fig_12_b_.csv",
            "fig_12_b_.md"
        ]
    );
    assert!(output.stdout.is_empty(), "--quiet prints no chart");
    std::fs::remove_dir_all(&dir).unwrap();
}
