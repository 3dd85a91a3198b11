//! Boundary sweep: the factoring engine and one-pass execution
//! must be correct for *every* legal `(b, m, n)` boundary combination,
//! not just the comfortable ones. This suite sweeps all valid
//! geometries with n ≤ 10 (in simulation) and all (b, m) splits with
//! n = 9 (factoring only).

use bmmc::passes::reference_permute;
use bmmc::{catalog, factor, perform_bmmc};
use pdm::{DiskSystem, Geometry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Factoring alone across every split: b < m < n for n = 9.
#[test]
fn factoring_correct_for_every_split() {
    let mut rng = StdRng::seed_from_u64(4001);
    let n = 9;
    for b in 0..n {
        for m in (b + 1)..n {
            for _ in 0..3 {
                let perm = catalog::random_bmmc(&mut rng, n);
                let fac = factor(&perm, b, m)
                    .unwrap_or_else(|e| panic!("factor failed at b={b}, m={m}: {e}"));
                assert!(fac.verify(&perm), "recomposition failed at b={b}, m={m}");
                let rank_gm = gf2::elim::rank(&perm.matrix().submatrix(m..n, 0..m));
                let expect = if rank_gm == 0 {
                    1
                } else {
                    rank_gm.div_ceil(m - b) + 1
                };
                assert_eq!(fac.num_passes(), expect, "wrong pass count at b={b}, m={m}");
            }
        }
    }
}

/// Full simulation across every legal small geometry (n ≤ 10): all
/// power-of-two (B, D, M) with BD ≤ M < N and M > B.
#[test]
fn simulation_correct_for_every_small_geometry() {
    let mut rng = StdRng::seed_from_u64(4002);
    let n = 10usize;
    let records = 1usize << n;
    let mut geometries = 0;
    for b in 0..n {
        for d in 0..n {
            for m in 1..n {
                let (bb, dd, mm) = (1usize << b, 1usize << d, 1usize << m);
                if bb * dd > mm || mm >= records || mm <= bb {
                    continue;
                }
                let Ok(g) = Geometry::new(records, bb, dd, mm) else {
                    continue;
                };
                geometries += 1;
                let perm = catalog::random_bmmc(&mut rng, n);
                let input: Vec<u64> = (0..records as u64).collect();
                let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
                sys.load_records(0, &input);
                let report = perform_bmmc(&mut sys, &perm)
                    .unwrap_or_else(|e| panic!("b={b} d={d} m={m}: {e}"));
                let expect = reference_permute(&input, |x| perm.target(x));
                assert_eq!(
                    sys.dump_records(report.final_portion),
                    expect,
                    "misplaced records at b={b}, d={d}, m={m}"
                );
                // Pass cost identity: every pass reads and writes every
                // record exactly once.
                assert_eq!(
                    report.total.blocks_read,
                    (report.num_passes() * g.total_blocks()) as u64
                );
                assert_eq!(report.total.blocks_read, report.total.blocks_written);
            }
        }
    }
    assert!(
        geometries > 25,
        "sweep covered only {geometries} geometries — loosen the filters?"
    );
}

/// The detection path across every legal small geometry.
#[test]
fn detection_correct_for_every_small_geometry() {
    use bmmc::bounds::detection_reads;
    use bmmc::detect::{detect_bmmc, load_target_vector};
    let mut rng = StdRng::seed_from_u64(4003);
    let n = 10usize;
    let records = 1usize << n;
    for b in 0..n {
        for d in 0..n {
            for m in 1..n {
                let (bb, dd, mm) = (1usize << b, 1usize << d, 1usize << m);
                if bb * dd > mm || mm >= records || mm <= bb {
                    continue;
                }
                let Ok(g) = Geometry::new(records, bb, dd, mm) else {
                    continue;
                };
                let perm = catalog::random_bmmc(&mut rng, n);
                let mut sys = load_target_vector(g, &perm.target_vector());
                let det =
                    detect_bmmc(&mut sys, 0).unwrap_or_else(|e| panic!("b={b} d={d} m={m}: {e}"));
                assert_eq!(
                    det.bmmc().expect("positive instance"),
                    &perm,
                    "wrong candidate at b={b}, d={d}, m={m}"
                );
                assert_eq!(
                    det.stats().total(),
                    detection_reads(&g),
                    "read count off at b={b}, d={d}, m={m}"
                );
            }
        }
    }
}
