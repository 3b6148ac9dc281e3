//! The `experiments` command-line contract: malformed invocations print the
//! usage line and exit 2 without writing anything, and a well-formed one
//! writes the same artifact as the committed golden.

use bench::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn experiments(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("experiments binary runs")
}

/// A fresh, empty directory for one test's run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("experiments-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn malformed_invocations_print_usage_and_exit_2() {
    let cases: [&[&str]; 5] = [
        &["bogus"],
        &["--jobs", "0"],
        &["--faults", "3..3"],
        &["--profile", "p.json"],
        &["fig1", "--json", "--jobs"],
    ];
    for args in cases {
        let dir = scratch_dir("malformed");
        let out = experiments(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("read scratch dir").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}

#[test]
fn fig1_json_matches_golden() {
    let dir = scratch_dir("fig1");
    let out = experiments(&["fig1", "--json", "fig1.json"], &dir);
    assert_eq!(out.status.code(), Some(0));
    let artifact = |text: &str| -> Json {
        parse(text)
            .expect("valid JSON")
            .get("artifacts")
            .and_then(|a| a.get("fig1"))
            .expect("fig1 artifact")
            .clone()
    };
    let fresh = std::fs::read_to_string(dir.join("fig1.json")).expect("fig1.json written");
    let golden = include_str!("../../../golden/all.json");
    assert_eq!(artifact(&fresh), artifact(golden));
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
