//! Forecast vs single-buffered merge: placement equivalence
//! (proptest), exact predicted-vs-measured costs for every strategy
//! (against the schedule replay `extsort::merge_sort_*`, re-exported
//! by `bmmc::bounds`), and the PR acceptance criterion at the
//! `engine_sweep` extsort geometry.

use bmmc::bounds;
use extsort::{sort_by_key_with, MergeStrategy, SortConfig};
use pdm::{DiskSystem, Geometry, ServiceMode, TaggedRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Geometries where both the single-buffered and the forecasting merge
/// fit, including D = 1 and the minimum-memory corner. (The issue's
/// "M = 3·BD" fan-in-2 minimum is not expressible here — every
/// geometry dimension must be a power of two — so M = 4·BD is the
/// model's actual floor, and it is the floor for *both* strategies:
/// M/BD − 1 ≥ 3 and M/B − D − 1 ≥ 2 hold together exactly when
/// M ≥ 4BD.)
fn geometries() -> Vec<Geometry> {
    vec![
        // M = 4·BD at D = 4: the minimum-memory corner.
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap(),
        // D = 1 at its own minimum M = 4·B (forecast fan-in 2).
        Geometry::new(1 << 9, 1 << 2, 1, 1 << 4).unwrap(),
        // Mid-size, deeper merge trees.
        Geometry::new(1 << 12, 1 << 3, 1 << 2, 1 << 8).unwrap(),
        // B = 1: every block is a single record.
        Geometry::new(1 << 12, 1, 1 << 2, 1 << 6).unwrap(),
        // Wide disk array relative to memory (D = 8).
        Geometry::new(1 << 11, 1 << 1, 1 << 3, 1 << 7).unwrap(),
    ]
}

fn run_sort(
    g: Geometry,
    input: &[u64],
    merge: MergeStrategy,
    mode: ServiceMode,
) -> (extsort::SortReport, Vec<u64>) {
    let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
    sys.set_service_mode(mode);
    sys.load_records(0, input);
    let report = sort_by_key_with(&mut sys, |&r| r, SortConfig { merge }).unwrap();
    assert_eq!(
        sys.buffer_pool_stats().outstanding,
        0,
        "merge stranded pooled buffers ({merge:?}, {mode:?})"
    );
    (report, sys.dump_records(report.final_portion))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Key-permutation inputs: forecast places every record
    /// byte-identically to the single-buffered merge, in serial and
    /// threaded service, and both match the exact predicted cost.
    #[test]
    fn forecast_matches_single_buffered_placement(seed in any::<u64>(), gi in 0usize..5) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut input: Vec<u64> = (0..g.records() as u64).collect();
        input.shuffle(&mut rng);
        let expect: Vec<u64> = (0..g.records() as u64).collect();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let (sr, sout) = run_sort(g, &input, MergeStrategy::SingleBuffered, mode);
            let (fr, fout) = run_sort(g, &input, MergeStrategy::Forecast, mode);
            prop_assert_eq!(&sout, &expect, "single-buffered missorted ({:?})", mode);
            prop_assert_eq!(&fout, &sout, "placements diverged ({:?})", mode);
            // Exact cost agreement with the bounds-side replay.
            for (report, strategy) in [
                (&sr, MergeStrategy::SingleBuffered),
                (&fr, MergeStrategy::Forecast),
            ] {
                prop_assert_eq!(
                    Some(report.passes),
                    bounds::merge_sort_passes(&g, strategy)
                );
                prop_assert_eq!(
                    Some(report.total.parallel_ios()),
                    bounds::merge_sort_ios(&g, strategy)
                );
            }
        }
    }

    /// The adversarial key catalogs ([`extsort::keys`]): duplicate-
    /// heavy and skewed inputs sort correctly under every strategy,
    /// with identical multisets across them.
    #[test]
    fn adversarial_key_catalogs_sort_under_every_strategy(
        seed in any::<u64>(),
        gi in 0usize..5,
        distinct in 1u64..8,
    ) {
        let g = geometries()[gi];
        let n = g.records();
        let catalogs = [
            extsort::keys::duplicate_heavy(seed, n, distinct),
            extsort::keys::skewed(seed, n, n as u64 * 4),
        ];
        for input in &catalogs {
            let mut reference = input.clone();
            reference.sort_unstable();
            for merge in MergeStrategy::ALL {
                let (_, out) = run_sort(g, input, merge, ServiceMode::Serial);
                // Records are their own keys here, so "sorted with the
                // right multiset" pins the full output vector.
                prop_assert_eq!(&out, &reference, "{:?} missorted", merge);
            }
        }
    }

    /// Duplicate keys: merge order may differ between strategies, but
    /// the output must be sorted and carry the same multiset.
    #[test]
    fn forecast_matches_single_buffered_multiset(
        seed in any::<u64>(),
        gi in 0usize..5,
        modulus in 1u64..40,
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut input: Vec<u64> = (0..g.records() as u64).map(|i| i % modulus).collect();
        input.shuffle(&mut rng);
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let (_, sout) = run_sort(g, &input, MergeStrategy::SingleBuffered, mode);
            let (_, fout) = run_sort(g, &input, MergeStrategy::Forecast, mode);
            prop_assert!(sout.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(fout.windows(2).all(|w| w[0] <= w[1]));
            let mut a = sout.clone();
            let mut b = fout.clone();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "multisets diverged ({:?})", mode);
        }
    }
}

/// Every strategy's measured pass count and parallel-I/O count equals
/// the schedule replay on every geometry — the executor and the replay
/// (including the leftover-singleton tightening) stay in lock-step.
#[test]
fn measured_costs_match_bounds_for_every_strategy() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for g in geometries() {
        let mut input: Vec<u64> = (0..g.records() as u64).collect();
        input.shuffle(&mut rng);
        for merge in MergeStrategy::ALL {
            let (report, out) = run_sort(g, &input, merge, ServiceMode::Serial);
            assert!(out.windows(2).all(|w| w[0] <= w[1]), "{merge:?} on {g:?}");
            assert_eq!(report.fan_in, merge.fan_in(&g), "{merge:?} on {g:?}");
            assert_eq!(
                Some(report.passes),
                bounds::merge_sort_passes(&g, merge),
                "pass count drifted from the replay ({merge:?} on {g:?})"
            );
            assert_eq!(
                Some(report.total.parallel_ios()),
                bounds::merge_sort_ios(&g, merge),
                "parallel I/Os drifted from the replay ({merge:?} on {g:?})"
            );
        }
    }
}

/// The PR acceptance criterion at the `engine_sweep` extsort geometry
/// (B = 2^3, D = 2^4, M = 2^12; N = 2^17 keeps the test fast while
/// still forcing the single-buffered sort into two merge passes):
/// forecast fan-in ≥ 8× the single-buffered `M/BD − 1`, strictly fewer
/// passes, and exact parallel-I/O counts, identical across serial and
/// threaded service.
#[test]
fn acceptance_forecast_closes_fan_in_gap_at_bench_geometry() {
    let g = Geometry::new(1 << 17, 1 << 3, 1 << 4, 1 << 12).unwrap();
    let mut rng = StdRng::seed_from_u64(0xACCE);
    let mut input: Vec<u64> = (0..g.records() as u64).collect();
    input.shuffle(&mut rng);

    let (sr, sout) = run_sort(
        g,
        &input,
        MergeStrategy::SingleBuffered,
        ServiceMode::Serial,
    );
    let (fr, fout) = run_sort(g, &input, MergeStrategy::Forecast, ServiceMode::Serial);
    let (ft, fout_threaded) = run_sort(g, &input, MergeStrategy::Forecast, ServiceMode::Threaded);

    // Fan-in: 31 single-buffered, 495 forecasting — a 15.9× gap, well
    // past the required 8×.
    assert_eq!(sr.fan_in, 31);
    assert_eq!(fr.fan_in, 495);
    assert!(fr.fan_in >= 8 * sr.fan_in);

    // Strictly fewer passes: 32 runs collapse in one forecast merge.
    assert_eq!(sr.passes, 3);
    assert_eq!(fr.passes, 2);
    assert!(fr.passes < sr.passes);

    // Exact parallel-I/O counts (see bounds::merge_sort_ios): the
    // single-buffered sort charges 2048 (formation) + 1984 (merge pass
    // with its 32-stripe singleton left in place) + 2048; the forecast
    // merge charges 2048 + 1024·(D+1) = 2048 + 17408.
    assert_eq!(sr.total.parallel_ios(), 6080);
    assert_eq!(fr.total.parallel_ios(), 19456);
    assert_eq!(
        Some(sr.total.parallel_ios()),
        bounds::merge_sort_ios(&g, MergeStrategy::SingleBuffered)
    );
    assert_eq!(
        Some(fr.total.parallel_ios()),
        bounds::merge_sort_ios(&g, MergeStrategy::Forecast)
    );
    // Forecast write discipline stays striped; merge reads are
    // independent single-block operations.
    assert_eq!(fr.total.striped_writes, fr.total.parallel_writes);
    assert_eq!(fr.total.independent_reads(), 16384);

    // Threading changes neither placement nor any charged count.
    assert_eq!(fout, sout);
    assert_eq!(fout_threaded, fout);
    assert_eq!(ft.total, fr.total);
}

/// Equal keys leave the merge in run order, so the output is one
/// fixed vector whatever the strategy or service mode: the heap is
/// keyed on `(key, run index)`. Records carry distinct payloads and
/// collide on `key % 17`.
#[test]
fn equal_keys_sort_identically_under_every_strategy_and_mode() {
    for g in geometries() {
        let mut keys: Vec<u64> = (0..g.records() as u64).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(0x7A9));
        let input: Vec<TaggedRecord> = keys.into_iter().map(TaggedRecord::new).collect();
        let mut outputs = Vec::new();
        for merge in MergeStrategy::ALL {
            for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
                let mut sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(g, 2);
                sys.set_service_mode(mode);
                sys.load_records(0, &input);
                let config = SortConfig { merge };
                let report = sort_by_key_with(&mut sys, |r| r.key % 17, config).unwrap();
                let out = sys.dump_records(report.final_portion);
                assert!(out.windows(2).all(|w| w[0].key % 17 <= w[1].key % 17));
                assert!(out.iter().all(TaggedRecord::intact));
                outputs.push(((merge, mode), out));
            }
        }
        let (first, expect) = &outputs[0];
        for (run, out) in &outputs[1..] {
            assert!(
                out == expect,
                "{run:?} ordered ties unlike {first:?} on {g:?}"
            );
        }
    }
}
