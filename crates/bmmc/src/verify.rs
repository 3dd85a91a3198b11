//! Counted post-hoc verification: check that a disk portion holds the
//! image of a permutation, charging the parallel reads it costs.
//!
//! After a production run one often wants positive confirmation that
//! every record landed where the permutation says. For records that
//! carry their source address, a full check is a single scan — `N/BD`
//! striped parallel reads, the same cost as the verification phase of
//! Section 6 detection. The scan streams one memoryload at a time
//! ([`DiskSystem::read_memoryload_into`], one run per disk on a
//! pooled system). The keys found on disk are data-dependent (no block
//! structure to hoist), so the in-memory check runs through
//! [`AffineEvaluator::eval_batch`]: one table-at-a-time sweep per
//! stripe instead of a full evaluator walk per record.

use crate::bmmc::Bmmc;
use crate::error::{BmmcError, Result};
use crate::eval::AffineEvaluator;
use pdm::{DiskSystem, Record};

/// Outcome of a verification scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Every record sits at its target address.
    Correct {
        /// Parallel reads spent (= `N/BD` for a full scan).
        reads: u64,
    },
    /// The record at this address does not belong there.
    Misplaced {
        /// The address holding the wrong record.
        address: u64,
        /// The source key found there.
        found_key: u64,
        /// Parallel reads spent before stopping.
        reads: u64,
    },
}

/// Scans `portion` and checks that the record with source key `k`
/// (extracted by `key_of`) sits at `perm.target(k)` for every record.
/// The scan reads one memoryload (`M/BD` striped reads) before checking
/// it, and stops after the first memoryload holding a misplacement: a
/// full scan costs `N/BD` reads, an early exit at most `M/BD` more than
/// the memoryloads before the misplaced record.
pub fn verify_permutation<R: Record>(
    sys: &mut DiskSystem<R>,
    portion: usize,
    perm: &Bmmc,
    key_of: impl Fn(&R) -> u64,
) -> Result<VerifyOutcome> {
    let geom = sys.geometry();
    if perm.bits() != geom.n() {
        return Err(BmmcError::GeometryMismatch {
            perm_bits: perm.bits(),
            system_bits: geom.n(),
        });
    }
    let ev = AffineEvaluator::new(perm);
    let stripe_len = geom.block() * geom.disks();
    let mut records = vec![R::default(); geom.memory()];
    let mut keys = vec![0u64; stripe_len];
    let mut targets = vec![0u64; stripe_len];
    let before = sys.stats();
    let mut start = 0u64;
    for ml in 0..geom.memoryloads() {
        sys.read_memoryload_into(portion, ml, &mut records)?;
        for stripe in records.chunks_exact(stripe_len) {
            for (k, rec) in keys.iter_mut().zip(stripe) {
                *k = key_of(rec);
            }
            ev.eval_batch(&keys, &mut targets);
            for (i, (&key, &target)) in keys.iter().zip(&targets).enumerate() {
                let address = start + i as u64;
                if target != address {
                    return Ok(VerifyOutcome::Misplaced {
                        address,
                        found_key: key,
                        reads: sys.stats().since(&before).parallel_reads,
                    });
                }
            }
            start += stripe_len as u64;
        }
    }
    Ok(VerifyOutcome::Correct {
        reads: sys.stats().since(&before).parallel_reads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::perform_bmmc;
    use crate::catalog;
    use pdm::{Geometry, TaggedRecord};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geom() -> Geometry {
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap()
    }

    #[test]
    fn confirms_correct_run() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(141);
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let mut sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(g, 2);
        sys.load_records(
            0,
            &(0..g.records() as u64)
                .map(TaggedRecord::new)
                .collect::<Vec<_>>(),
        );
        let report = perform_bmmc(&mut sys, &perm).unwrap();
        let out = verify_permutation(&mut sys, report.final_portion, &perm, |r| r.key).unwrap();
        assert_eq!(
            out,
            VerifyOutcome::Correct {
                reads: g.stripes() as u64
            }
        );
    }

    #[test]
    fn catches_misplacement() {
        let g = geom();
        let mut sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(g, 1);
        let mut records: Vec<TaggedRecord> =
            (0..g.records() as u64).map(TaggedRecord::new).collect();
        records.swap(3, 200);
        sys.load_records(0, &records);
        let id = Bmmc::identity(g.n());
        match verify_permutation(&mut sys, 0, &id, |r| r.key).unwrap() {
            VerifyOutcome::Misplaced {
                address, found_key, ..
            } => {
                assert_eq!(address, 3);
                assert_eq!(found_key, 200);
            }
            VerifyOutcome::Correct { .. } => panic!("swap not detected"),
        }
    }

    #[test]
    fn early_exit_costs_less() {
        let g = geom();
        let mut sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(g, 1);
        let mut records: Vec<TaggedRecord> =
            (0..g.records() as u64).map(TaggedRecord::new).collect();
        records.swap(0, 1); // corrupt in the very first stripe
        sys.load_records(0, &records);
        let id = Bmmc::identity(g.n());
        match verify_permutation(&mut sys, 0, &id, |r| r.key).unwrap() {
            VerifyOutcome::Misplaced { reads, .. } => {
                assert_eq!(reads, 4, "one memoryload: M/BD striped reads");
                assert!(reads < 64, "less than a full scan's N/BD reads");
            }
            VerifyOutcome::Correct { .. } => panic!("swap not detected"),
        }
    }
}
