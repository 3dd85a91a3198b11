//! General permutations via external sorting — the Vitter–Shriver
//! baseline the BMMC algorithm is compared against.
//!
//! To perform an arbitrary permutation `π`, tag each record with its
//! target address `π(x)` and sort by the tag: the sorted order *is*
//! the permuted order, because the tags are exactly `0..N`.
//!
//! The sort itself runs on the shared streaming machinery of
//! `pdm::engine` (see [`crate::merge`]): run formation is a
//! [`pdm::PassEngine`] pass, so with
//! [`pdm::ServiceMode::Threaded`] the disk service threads
//! prefetch the next memoryload while the current one is sorted. The
//! merge strategy (single-buffered or forecasting — see
//! [`crate::MergeStrategy`]) is selectable via
//! [`general_permute_with`].

use crate::merge::{sort_by_key_with, SortConfig, SortReport};
use pdm::{DiskSystem, PdmError, Record};

/// Performs an arbitrary permutation of the records in portion 0 with
/// the default (single-buffered) merge. See [`general_permute_with`].
///
/// * `key_of` recovers a record's *source address* (its identity) —
///   e.g. `|r| r.key` for [`pdm::TaggedRecord`] or `|&r| r` for `u64`
///   records initialized to their own index.
/// * `target` is the permutation: source address → target address.
pub fn general_permute<R: Record>(
    sys: &mut DiskSystem<R>,
    key_of: impl Fn(&R) -> u64 + Copy,
    target: impl Fn(u64) -> u64 + Copy,
) -> Result<SortReport, PdmError> {
    general_permute_with(sys, key_of, target, SortConfig::default())
}

/// [`general_permute`] with an explicit [`SortConfig`], so callers
/// (the CLI's `--merge` flag, the benches) can pick the merge
/// strategy.
pub fn general_permute_with<R: Record>(
    sys: &mut DiskSystem<R>,
    key_of: impl Fn(&R) -> u64 + Copy,
    target: impl Fn(u64) -> u64 + Copy,
    cfg: SortConfig,
) -> Result<SortReport, PdmError> {
    sort_by_key_with(sys, move |r| target(key_of(r)), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergeStrategy;
    use pdm::{Geometry, TaggedRecord};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn geom() -> Geometry {
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap()
    }

    #[test]
    fn performs_random_general_permutation() {
        let g = geom();
        let n = g.records();
        let mut rng = StdRng::seed_from_u64(111);
        let mut targets: Vec<u64> = (0..n as u64).collect();
        targets.shuffle(&mut rng);
        let targets2 = targets.clone();

        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..n as u64).collect::<Vec<_>>());
        let tmap = &targets;
        let report = general_permute(&mut sys, |&r| r, move |x| tmap[x as usize]).unwrap();
        let out = sys.dump_records(report.final_portion);
        for (x, &y) in targets2.iter().enumerate() {
            assert_eq!(out[y as usize], x as u64, "record {x} misplaced");
        }
    }

    #[test]
    fn forecast_strategy_performs_identical_permutation() {
        let g = geom();
        let n = g.records();
        let mut rng = StdRng::seed_from_u64(112);
        let mut targets: Vec<u64> = (0..n as u64).collect();
        targets.shuffle(&mut rng);

        let run = |merge: MergeStrategy| {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.load_records(0, &(0..n as u64).collect::<Vec<_>>());
            let tmap = &targets;
            let report = general_permute_with(
                &mut sys,
                |&r| r,
                move |x| tmap[x as usize],
                SortConfig { merge },
            )
            .unwrap();
            assert_eq!(report.strategy, merge);
            sys.dump_records(report.final_portion)
        };
        assert_eq!(
            run(MergeStrategy::SingleBuffered),
            run(MergeStrategy::Forecast),
            "strategies must place every record identically"
        );
    }

    #[test]
    fn cost_matches_general_bound_shape() {
        // The executable baseline's I/O count equals the sorting term
        // of the general-permutation bound with fan-in M/BD − 1,
        // tightened by the leftover-singleton rule: merge pass 1
        // (16 runs = 5 groups of 3 + one of 1) leaves one 4-stripe run
        // in place instead of copying it.
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
        let report = general_permute(
            &mut sys,
            |&r| r,
            |x| {
                // bit-reversal as a stand-in permutation
                x.reverse_bits() >> (64 - g.n())
            },
        )
        .unwrap();
        let mut runs = g.memoryloads();
        let mut merge_passes = 0;
        while runs > 1 {
            runs = runs.div_ceil(report.fan_in);
            merge_passes += 1;
        }
        assert_eq!(report.passes, 1 + merge_passes);
        assert_eq!(
            report.total.parallel_ios() as usize,
            report.passes * g.ios_per_pass() - 2 * g.stripes_per_memoryload()
        );
    }

    #[test]
    fn tagged_records_preserve_payload() {
        let g = geom();
        let n = g.records();
        let mut sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..n as u64).map(TaggedRecord::new).collect::<Vec<_>>());
        // vector reversal
        let max = n as u64 - 1;
        let report = general_permute(&mut sys, |r: &TaggedRecord| r.key, move |x| max - x).unwrap();
        let out = sys.dump_records(report.final_portion);
        for (y, rec) in out.iter().enumerate() {
            assert!(rec.intact());
            assert_eq!(rec.key, max - y as u64);
        }
    }
}
