//! The `tables` binary's argument handling.

use std::process::Command;

#[test]
fn tables_rejects_a_misspelled_flag_with_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("--verfy")
        .output()
        .expect("tables runs");
    assert_eq!(out.status.code(), Some(2), "a usage error exits 2");
    assert!(out.stdout.is_empty(), "no tables are printed");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown option: --verfy"), "{stderr}");
    assert!(stderr.contains("usage: tables"), "{stderr}");
}
