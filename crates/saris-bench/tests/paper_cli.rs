//! Drives the `paper` binary: every subcommand runs to completion (each
//! asserts its own paper checks and verifies its kernels before
//! printing), and `all` renders every artifact once.

use std::process::{Command, Output};

use saris_codegen::CalibrationStore;

const SUBCOMMANDS: [&str; 12] = [
    "table1",
    "listing1",
    "fig3a",
    "fig3b",
    "fig4",
    "fig5",
    "table2",
    "all",
    "ablation-unroll",
    "ablation-coeff-strategy",
    "ablation-arch",
    "calibration",
];

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("spawn paper")
}

fn stdout_of(args: &[&str]) -> String {
    let out = paper(args);
    assert!(
        out.status.success(),
        "paper {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn every_subcommand_succeeds_with_output() {
    for sub in SUBCOMMANDS {
        assert!(!stdout_of(&[sub]).trim().is_empty(), "paper {sub}");
    }
}

#[test]
fn unknown_subcommands_fail_and_list_the_valid_ones() {
    for args in [&["fig6"][..], &[], &["fig3a", "extra"]] {
        let out = paper(args);
        assert!(!out.status.success(), "paper {args:?}");
        assert!(out.stdout.is_empty(), "paper {args:?}");
        let usage = String::from_utf8_lossy(&out.stderr);
        for sub in SUBCOMMANDS {
            assert!(usage.contains(sub), "usage omits {sub}:\n{usage}");
        }
    }
}

#[test]
fn all_prints_each_artifact_once() {
    let all = stdout_of(&["all"]);
    for header in [
        "Table 1: implemented stencil codes",
        "Listing 1 point-loop instruction mix",
        "Figure 3a: SARIS speedup over base",
        "Figure 3b: FPU utilization and IPC",
        "Figure 4: cluster power",
        "Figure 5: Manticore-256s scaleout estimate",
        "Table 2: highest fraction of peak compute",
    ] {
        assert_eq!(all.matches(header).count(), 1, "{header}");
    }
    // One shared evaluation: a figure alone prints what `all` embeds.
    assert!(all.contains(stdout_of(&["fig3a"]).trim_end()));
}

#[test]
fn calibration_emits_an_importable_store() {
    let path = std::env::temp_dir().join(format!("paper_cli_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let said = stdout_of(&["calibration", "--out", path_str]);
    let json = std::fs::read_to_string(&path).expect("calibration file written");
    std::fs::remove_file(&path).expect("remove calibration file");
    // Ten codes x two variants, in the format the baked seed ships in.
    let store = CalibrationStore::from_json(&json).expect("export parses");
    assert_eq!(store.len(), 20);
    assert!(said.contains("20 calibration entries"), "{said}");
}
