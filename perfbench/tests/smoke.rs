//! Tiny-geometry smoke tests of every workload through the benchmark's
//! own code, traced and untraced, plus the span and metric-list
//! invariants.

use bmmc::bounds::{merge_sort_ios, MergeStrategy};
use bmmc::catalog::random_bmmc;
use bmmc::Plan;
use bmmc_perfbench::trace::{self, Trace};
use bmmc_perfbench::{run, Outcome, RunConfig, Sizes, Workload, END_TO_END, PER_LAYER};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const SEED: u64 = 7;

fn config(trace: bool, tag: &str) -> RunConfig {
    // Tests run in parallel: each run gets its own socket directory.
    let out_dir = std::env::temp_dir().join(format!(
        "perfbench-{}-{tag}-{}",
        std::process::id(),
        if trace { "traced" } else { "untraced" }
    ));
    RunConfig {
        seed: SEED,
        seconds: 0.02,
        trace,
        sizes: Sizes::tiny(),
        out_dir,
    }
}

/// The exact parallel-I/O count of one operation, predicted
/// independently of the benchmark.
fn predicted_ios(workload: Workload, sizes: &Sizes) -> Option<u64> {
    match workload {
        Workload::BmmcSerial | Workload::BmmcThreaded => {
            let g = sizes.bmmc;
            let perm = random_bmmc(&mut StdRng::seed_from_u64(SEED), g.n());
            Some(Plan::bmmc(&perm, &g).unwrap().parallel_ios(&g))
        }
        Workload::SortThreaded => merge_sort_ios(&sizes.sort, MergeStrategy::Forecast),
        // A mix of job kinds: checked per job inside the run.
        Workload::ServedMixed => None,
    }
}

fn assert_clean(out: &Outcome, what: &str) {
    assert!(out.attempted >= 2, "{what}: attempted {}", out.attempted);
    assert_eq!(out.failed, 0, "{what}: {:?}", out.errors);
}

#[test]
fn every_workload_runs_checked_and_untraced() {
    for w in Workload::ALL {
        let cfg = config(false, w.name());
        let out = run(w, &cfg);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
        assert_clean(&out, w.name());
        let names: Vec<_> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, END_TO_END, "{}", w.name());
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        if let Some(ios) = predicted_ios(w, &cfg.sizes) {
            assert_eq!(out.metric("parallel_ios"), Some(ios as f64), "{}", w.name());
        }
        assert!(out.spans_jsonl.is_none());
    }
}

#[test]
fn every_workload_runs_checked_and_traced() {
    for w in Workload::ALL {
        let cfg = config(true, w.name());
        let out = run(w, &cfg);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
        assert_clean(&out, w.name());
        let names: Vec<_> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, PER_LAYER, "{}", w.name());
        let value = |name| out.metric(name).unwrap();
        assert!(value("trace.overhead_ratio") > 0.0, "{}", w.name());
        if let Some(ios) = predicted_ios(w, &cfg.sizes) {
            assert_eq!(value("system.parallel_ios"), ios as f64, "{}", w.name());
        }
        let spans = parse_spans(out.spans_jsonl.as_deref().expect("traced run keeps spans"));
        let has = |name: &str| spans.iter().any(|s| s.name == name);
        match w {
            Workload::BmmcSerial | Workload::BmmcThreaded => {
                assert!(has("plan") && has("exec.step") && has("eval.replay"));
                assert!(value("plan.steps") >= 1.0);
            }
            Workload::SortThreaded => {
                assert!(has("sort"));
                assert!(value("sort.passes") >= 2.0);
            }
            Workload::ServedMixed => {
                assert!(has("served.submit") && has("served.result"));
                assert!(value("served.result_ms") > 0.0);
            }
        }
        if matches!(w, Workload::BmmcThreaded | Workload::SortThreaded) {
            // Threaded systems run over the timed seams: one submit per
            // block moved, and every block lands on a timed disk.
            assert_eq!(value("transport.submits"), value("system.blocks_moved"));
            assert_eq!(value("backend.ops"), value("system.blocks_moved"));
        }
        assert_self_plus_children_is_duration(&spans);
    }
}

/// The fields of one span line that the invariants need.
struct SpanLine {
    id: u64,
    parent: Option<u64>,
    name: String,
    duration: u64,
    self_ns: u64,
    leaf_ns: u64,
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().trim_matches('"')
}

fn parse_spans(jsonl: &str) -> Vec<SpanLine> {
    jsonl
        .lines()
        .map(|line| {
            let num = |k| field(line, k).parse::<u64>().expect(k);
            let leaves = &line[line.find("\"leaves\"").unwrap()..];
            let leaf_ns = leaves
                .match_indices("\"ns\":")
                .map(|(i, _)| field(&leaves[i..], "ns").parse::<u64>().unwrap())
                .sum();
            SpanLine {
                id: num("id"),
                parent: field(line, "parent").parse().ok(),
                name: field(line, "name").to_string(),
                duration: num("end_ns") - num("start_ns"),
                self_ns: num("self_ns"),
                leaf_ns,
            }
        })
        .collect()
}

/// Each span's self time plus its children's time (child spans and
/// leaves) equals its duration, with no clamping needed.
fn assert_self_plus_children_is_duration(spans: &[SpanLine]) {
    assert!(!spans.is_empty());
    for s in spans {
        let children: u64 = s.leaf_ns
            + spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| c.duration)
                .sum::<u64>();
        assert!(children <= s.duration, "span {} ({})", s.id, s.name);
        assert_eq!(
            s.self_ns + children,
            s.duration,
            "span {} ({})",
            s.id,
            s.name
        );
    }
}

#[test]
fn span_self_time_excludes_children_and_leaves() {
    let t = Trace::default();
    {
        let _op = t.span("op", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _a = t.span("a", 1);
            trace::leaf("x", 500);
            trace::leaf("x", 700);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let _b = t.span("b", 1);
        // A span on another thread starts its own tree.
        std::thread::scope(|s| {
            s.spawn(|| drop(t.span("other", 2)));
        });
    }
    trace::leaf("outside", 1); // no open span: dropped
    let spans = t.spans();
    assert_eq!(spans.len(), 4);
    let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
    let (op, a, b, other) = (by_name("op"), by_name("a"), by_name("b"), by_name("other"));
    assert_eq!(
        (a.parent, b.parent, other.parent),
        (Some(op.id), Some(op.id), None)
    );
    assert_eq!(a.leaves.len(), 1);
    assert_eq!((a.leaves[0].calls, a.leaves[0].ns), (2, 1200));
    let self_ns = trace::self_times(&spans);
    let children = trace::children_times(&spans);
    assert_eq!(children[&a.id], 1200);
    assert_eq!(children[&op.id], a.duration_ns() + b.duration_ns());
    for s in &spans {
        assert_eq!(
            self_ns[&s.id] + children[&s.id],
            s.duration_ns(),
            "{}",
            s.name
        );
    }
    let totals = trace::totals_by_op(&spans);
    assert_eq!(totals[&1]["a"].leaves["x"], (2, 1200));
    assert_eq!(totals[&2]["other"].count, 1);
    let mut out = Vec::new();
    t.write_jsonl(&mut out).unwrap();
    assert_self_plus_children_is_duration(&parse_spans(&String::from_utf8(out).unwrap()));
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    // Each entry of a section sits on one line of the file.
    let section = |key: &str| -> Vec<&str> {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let body = &text[start..start + text[start..].find(']').unwrap()];
        body.lines().filter(|l| l.contains("\"name\"")).collect()
    };
    let metrics = |key: &str| -> Vec<(String, String)> {
        section(key)
            .into_iter()
            .map(|l| (field(l, "name").to_string(), field(l, "unit").to_string()))
            .collect()
    };
    let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(metrics("end_to_end"), want(END_TO_END));
    assert_eq!(metrics("per_layer"), want(PER_LAYER));
    let workloads: Vec<&str> = section("workloads")
        .into_iter()
        .map(|l| field(l, "name"))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}
