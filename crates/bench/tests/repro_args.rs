//! `repro` rejects a bad flag value before it runs anything: usage on
//! stderr, exit code 2, and no sweep (so no journal is written).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn assert_usage_exit(out: &Output, problem: &str) {
    assert_eq!(out.status.code(), Some(2), "{problem}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(problem), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may print to stdout");
}

#[test]
fn out_of_range_table_exits_2_before_the_sweep() {
    let journal =
        std::env::temp_dir().join(format!("hydronas_repro_args_{}.jsonl", std::process::id()));
    std::fs::remove_file(&journal).ok();
    let journal_arg = journal.to_str().expect("utf-8 temp path");
    let out = repro(&["--table", "9", "--quiet", "--resume", journal_arg]);
    assert_usage_exit(&out, "--table needs a number 1-5");
    assert!(!journal.exists(), "the sweep must not start");
}

#[test]
fn out_of_range_figure_exits_2() {
    for figure in ["0", "5"] {
        let out = repro(&["--figure", figure]);
        assert_usage_exit(&out, "--figure needs a number 1-4");
    }
}
