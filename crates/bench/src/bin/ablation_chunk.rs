//! Ablation: the swap/erase chunk size of Section 5.
//!
//! The engine moves up to `lg(M/B) = m − b` lower-left columns per
//! swap/erase round, the most the middle section can hold. This
//! ablation re-runs the factoring with artificially smaller chunks and
//! confirms the pass count degrades as `⌈rank γ̂ / chunk⌉ + 1` — i.e.
//! the paper's choice is the optimal one.
//!
//! ```text
//! cargo run --release -p bmmc-bench --bin ablation_chunk
//! ```

use bmmc::{catalog, factor_chunked, Plan};
use bmmc_bench::{geom_label, Table};
use gf2::elim::rank;
use pdm::{DiskSystem, Geometry};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // lg(M/B) = 4 gives chunk sizes 1..=4 to sweep.
    let geom = Geometry::new(1 << 14, 1 << 4, 1 << 2, 1 << 8).unwrap();
    println!(
        "Chunk-size ablation @ {}   (Section 5 uses chunk = lg(M/B) = {})\n",
        geom_label(&geom),
        geom.lg_mb()
    );
    let mut rng = StdRng::seed_from_u64(37);
    let perm = catalog::random_bmmc(&mut rng, geom.n());
    let rank_gm = rank(&perm.matrix().submatrix(geom.m()..geom.n(), 0..geom.m()));
    println!("instance: random BMMC with rank γ̂ = {rank_gm}\n");

    let mut t = Table::new(&[
        "chunk",
        "predicted passes",
        "actual passes",
        "parallel I/Os",
        "verified",
    ]);
    let input: Vec<u64> = (0..geom.records() as u64).collect();
    for chunk in 1..=geom.lg_mb() {
        let fac = factor_chunked(&perm, geom.b(), geom.m(), chunk).unwrap();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
        sys.load_records(0, &input);
        let plan = Plan::from_passes(&fac.passes, geom.b(), geom.m());
        let report = plan.execute(&mut sys, &perm, |&x| x).unwrap();
        let out = sys.dump_records(report.final_portion);
        let ok = out
            .iter()
            .enumerate()
            .all(|(y, &k)| perm.target(k) == y as u64);
        let predicted = if rank_gm == 0 {
            1
        } else {
            rank_gm.div_ceil(chunk) + 1
        };
        t.row(&[
            chunk.to_string(),
            predicted.to_string(),
            report.num_passes().to_string(),
            report.total.parallel_ios().to_string(),
            if ok { "yes".into() } else { "NO".into() },
        ]);
        assert!(ok, "chunk {chunk} produced a wrong permutation");
        assert_eq!(report.num_passes(), predicted);
    }
    t.print();
    println!(
        "\npasses = ⌈rank γ̂ / chunk⌉ + 1 exactly; the full-width chunk (m−b) of \
         Section 5 minimizes both passes and I/Os."
    );
}
