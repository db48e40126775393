//! CLI regression tests for the `trace` binary's `--faults` flag: an
//! intensity outside `[0, 1]` (NaN included) must be rejected with exit 2
//! before any simulation runs, never silently treated as "no faults" or
//! scaled past the fault generator's range.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .output()
        .expect("spawn trace")
}

/// Fresh per-test scratch directory under the target dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[track_caller]
fn assert_rejected(out: &Output, value: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--faults {value} must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains("bad value for --faults")
            && stderr.contains("random_intensity must be in [0, 1]"),
        "--faults {value}: stderr does not name the range: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "--faults {value} printed results: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn run_rejects_out_of_range_fault_intensities_before_simulating() {
    let dir = scratch("run");
    for value in ["nan", "-0.5", "2"] {
        let file = dir.join("t.jsonl");
        let out = trace(&["run", "--out", file.to_str().unwrap(), "--faults", value]);
        assert_rejected(&out, value);
        assert!(!file.exists(), "--faults {value} created a trace file");
    }
}

#[test]
fn bisect_rejects_out_of_range_fault_intensities_before_simulating() {
    for value in ["nan", "-0.5", "2"] {
        let out = trace(&["bisect", "--probes", "1", "--faults", value]);
        assert_rejected(&out, value);
    }
}
