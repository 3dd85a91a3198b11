//! End-to-end tests of the `bmmc-cli` binary via `std::process`.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bmmc-cli"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn bmmc-cli");
    assert!(
        out.status.success(),
        "bmmc-cli {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn run_err(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn bmmc-cli");
    assert!(
        !out.status.success(),
        "bmmc-cli {args:?} unexpectedly succeeded"
    );
    String::from_utf8(out.stderr).expect("utf8 stderr")
}

const GEOM: &str = "2^12,2^2,2^2,2^7";

#[test]
fn help_lists_builtins() {
    let text = run_ok(&["help"]);
    assert!(text.contains("bit-reversal"));
    assert!(text.contains("COMMANDS"));
}

#[test]
fn info_prints_bounds() {
    let text = run_ok(&["info", "--builtin", "bit-reversal", "--geometry", GEOM]);
    assert!(text.contains("Theorem 3"));
    assert!(text.contains("Theorem 21"));
    assert!(text.contains("BPC=true"));
    // The exact extsort costs sit beside the Vitter–Shriver expression.
    assert!(text.contains("extsort single"), "{text}");
    assert!(text.contains("extsort forecast"), "{text}");
}

#[test]
fn run_with_verify_succeeds() {
    let text = run_ok(&[
        "run",
        "--builtin",
        "transpose:6",
        "--geometry",
        GEOM,
        "--verify",
    ]);
    assert!(text.contains("verified"));
}

#[test]
fn run_sort_algorithm() {
    let text = run_ok(&[
        "run",
        "--builtin",
        "gray",
        "--geometry",
        GEOM,
        "--algorithm",
        "sort",
        "--verify",
    ]);
    assert!(text.contains("plan sort-single:"), "{text}");
    assert!(text.contains("exactly as planned"), "{text}");
    assert!(text.contains("verified"));
}

#[test]
fn run_sort_with_forecast_merge() {
    // GEOM has M/B = 32, D = 4: forecast fan-in 27 merges the 32 runs
    // in two groups; single-buffered fan-in 31 would hold one back.
    let text = run_ok(&[
        "run",
        "--builtin",
        "bit-reversal",
        "--geometry",
        GEOM,
        "--algorithm",
        "sort",
        "--merge",
        "forecast",
        "--verify",
    ]);
    assert!(
        text.contains("plan sort-forecast: run-formation; merge(2 groups); merge(1 groups)"),
        "{text}"
    );
    assert!(text.contains("verified"));
}

#[test]
fn run_and_submit_reject_the_double_merge() {
    let run = run_err(&[
        "run",
        "--builtin",
        "gray",
        "--geometry",
        GEOM,
        "--algorithm",
        "sort",
        "--merge",
        "double",
    ]);
    // The strategy is parsed before any connection is attempted.
    let submit = run_err(&[
        "submit",
        "--socket",
        "/nonexistent/pdm.sock",
        "--job",
        "sort",
        "--records",
        "2^10",
        "--memory",
        "2^6",
        "--merge",
        "double",
    ]);
    for err in [run, submit] {
        assert!(err.contains("unknown merge strategy"), "{err}");
        assert!(err.contains("single | forecast"), "{err}");
    }
}

#[test]
fn auto_rejects_no_fuse() {
    let err = run_err(&[
        "run",
        "--builtin",
        "random:3",
        "--geometry",
        GEOM,
        "--no-fuse",
    ]);
    assert!(
        err.contains("--no-fuse cannot be combined with --algorithm auto"),
        "{err}"
    );
}

#[test]
fn run_on_file_backend_verifies() {
    // Default --dir: the CLI provisions (and removes) its own scratch
    // directory; the permutation must still verify end to end.
    let text = run_ok(&[
        "run",
        "--builtin",
        "bit-reversal",
        "--geometry",
        GEOM,
        "--backend",
        "file",
        "--threaded",
        "--verify",
    ]);
    assert!(text.contains("verified"), "file backend run:\n{text}");
}

#[test]
fn run_on_file_backend_with_explicit_dir() {
    let dir = pdm::TempDir::new("bmmc-cli-test");
    let dir_arg = dir.path().to_str().unwrap();
    let text = run_ok(&[
        "run",
        "--builtin",
        "gray",
        "--geometry",
        GEOM,
        "--backend",
        "file",
        "--dir",
        dir_arg,
        "--algorithm",
        "sort",
        "--verify",
    ]);
    assert!(text.contains("verified"), "file backend sort:\n{text}");
    // The per-disk files land where asked (D = 2^2 at this geometry).
    for d in 0..4 {
        assert!(
            dir.path().join(format!("disk{d:03}.bin")).is_file(),
            "missing disk file {d}"
        );
    }
}

#[test]
fn run_rejects_unknown_backend() {
    let err = run_err(&[
        "run",
        "--builtin",
        "gray",
        "--geometry",
        GEOM,
        "--backend",
        "tape",
    ]);
    assert!(err.contains("unknown backend"), "{err}");
}

#[test]
fn run_with_timing_model() {
    let text = run_ok(&[
        "run",
        "--builtin",
        "random:3",
        "--geometry",
        GEOM,
        "--timing",
        "hdd",
    ]);
    assert!(text.contains("simulated time"));
}

#[test]
fn factor_prints_plan() {
    let text = run_ok(&["factor", "--builtin", "random:9", "--geometry", GEOM]);
    assert!(text.contains("pass 1"));
    assert!(text.contains("recomposition check"));
    // PR 3: the fused execution plan and its predicted savings.
    assert!(text.contains("fused plan:"));
    assert!(text.contains("predicted I/O:"));
}

#[test]
fn bpc_baseline_reports_fusion_savings() {
    // Bit reversal crosses the memory boundary at this geometry, so
    // the BPC baseline plan has (MLD, MRC)+ MRC seams that fuse.
    let fused = run_ok(&[
        "run",
        "--builtin",
        "bit-reversal",
        "--geometry",
        GEOM,
        "--algorithm",
        "bpc",
        "--verify",
    ]);
    assert!(
        fused.contains("pass fusion saved"),
        "no fusion reported:\n{fused}"
    );
    assert!(fused.contains("verified"));
    // The opt-out executes every planned pass and reports no savings.
    let unfused = run_ok(&[
        "run",
        "--builtin",
        "bit-reversal",
        "--geometry",
        GEOM,
        "--algorithm",
        "bpc",
        "--no-fuse",
        "--verify",
    ]);
    assert!(!unfused.contains("pass fusion saved"));
    assert!(unfused.contains("verified"));
}

#[test]
fn detect_positive_and_negative() {
    let pos = run_ok(&["detect", "--builtin", "gray", "--geometry", GEOM]);
    assert!(pos.contains("BMMC: yes"));
    assert!(pos.contains("MRC=true"));
    let neg = run_ok(&["detect", "--shuffle", "1", "--geometry", GEOM]);
    assert!(neg.contains("BMMC: no"));
}

#[test]
fn spec_round_trips_through_file() {
    let text = run_ok(&["spec", "--builtin", "bit-reversal", "--n", "12"]);
    assert!(text.starts_with("bmmc 12"));
    let dir = std::env::temp_dir().join(format!("bmmc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("perm.bmmc");
    std::fs::write(&path, &text).unwrap();
    let run = run_ok(&[
        "run",
        "--spec",
        path.to_str().unwrap(),
        "--geometry",
        GEOM,
        "--verify",
    ]);
    assert!(run.contains("verified"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported() {
    let err = run_err(&["run", "--builtin", "nope", "--geometry", GEOM]);
    assert!(err.contains("unknown builtin"));
    let err = run_err(&["run", "--builtin", "gray", "--geometry", "3,3,3,3"]);
    assert!(err.contains("power of two"));
    let err = run_err(&["frobnicate"]);
    assert!(err.contains("unknown command"));
    let err = run_err(&["run", "--geometry", GEOM]);
    assert!(err.contains("exactly one of"));
}
