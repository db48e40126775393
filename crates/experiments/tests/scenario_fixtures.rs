//! Rejection fixtures: every malformed scenario file in
//! `tests/fixtures/scenarios/` must fail to compile with a *specific*
//! message anchored to a *specific* 1-based line — the compiler's
//! "one meaning or a hard error" contract, pinned file by file.
//!
//! The suite also sweeps the directory so a fixture added without a matching
//! expectation (or vice versa) fails loudly instead of rotting.

use experiments::scenario_compiler::compile;

/// `(file, expected line, expected message substring)`.
const EXPECTED: &[(&str, usize, &str)] = &[
    ("unknown-key.toml", 6, "unknown key `rage`"),
    ("leave-before-join.toml", 11, "must be after join_secs"),
    ("zero-nodes.toml", 5, "at least 2 nodes"),
    ("huge-nodes.toml", 7, "at most 100000, got 1000000000000"),
    (
        "grid-overflow.toml",
        7,
        "at most 100000, got a 4294967296x4294967296 grid",
    ),
    (
        "bad-sweep-axis.toml",
        8,
        "unsupported sweep axis `topology.warp_factor`",
    ),
    (
        "unterminated-section.toml",
        3,
        "unterminated [section] header",
    ),
    ("bad-value-type.toml", 5, "expects a"),
    ("singular-window-table.toml", 7, "must be an array table"),
    ("family-mismatch.toml", 6, "not valid for family \"random\""),
    (
        "overlapping-windows.toml",
        7,
        "overlapping churn windows for node 3 group 0",
    ),
    ("roles-exceed-nodes.toml", 3, "distinct nodes"),
    ("duplicate-key.toml", 6, "duplicate key `nodes`"),
    (
        "zero-probe-rate.toml",
        8,
        "probe_rate must be positive and finite, got 0",
    ),
    (
        "retries-too-large.toml",
        8,
        "retries must fit in 0..=4294967295",
    ),
    (
        "unknown-variant.toml",
        8,
        "unknown variant \"WAT\" (expected ODMRP or a registered metric: \
         ETT, ETX, METX, PP, SPP, HOP, ETX-bidir, InvETX, WCETT-LB)",
    ),
];

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/scenarios")
}

#[test]
fn every_fixture_fails_at_its_line_with_its_message() {
    for (file, line, msg) in EXPECTED {
        let path = fixture_dir().join(file);
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let err = compile(&src)
            .err()
            .unwrap_or_else(|| panic!("{file} compiled but must be rejected"));
        assert_eq!(
            err.line, *line,
            "{file}: error at line {} (expected {line}): {}",
            err.line, err.msg
        );
        assert!(
            err.msg.contains(msg),
            "{file}: error `{}` does not mention `{msg}`",
            err.msg
        );
        // The rendered form is what the sweep binary prints.
        assert_eq!(err.to_string(), format!("line {}: {}", err.line, err.msg));
    }
}

#[test]
fn the_fixture_directory_and_the_expectations_stay_in_sync() {
    let mut on_disk: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixtures dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".toml"))
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = EXPECTED.iter().map(|(f, _, _)| f.to_string()).collect();
    expected.sort();
    assert_eq!(
        on_disk, expected,
        "fixture files and EXPECTED entries must match one-to-one"
    );
}
