//! The potential-function view of the algorithm (**Section 2 /
//! Section 7**): track the Aggarwal–Vitter potential Φ across the
//! passes of the factored algorithm, verify the endpoints
//! (`Φ(0) = N(lg B − rank γ)`, `Φ(t) = N lg B`), and compare per-I/O
//! potential gain with the sharpened Δ_max of Section 7 — the
//! open-question diagnostic ("does each pass increase the potential by
//! Ω((N/BD)·Δ_max)?").
//!
//! ```text
//! cargo run --release -p bmmc-bench --bin potential_trace
//! ```

use bmmc::potential::{delta_max, final_potential, initial_potential_formula, trace_potential};
use bmmc::{bounds, factor, Bmmc};
use bmmc_bench::{geom_label, Table};
use gf2::elim::rank;
use gf2::sample::random_with_submatrix_rank;
use pdm::{DiskSystem, Geometry, TaggedRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(29);
    let geom = Geometry::new(1 << 14, 1 << 4, 1 << 2, 1 << 9).unwrap();
    println!("Potential trajectory @ {}\n", geom_label(&geom));
    let (n, b) = (geom.n(), geom.b());
    let r = b.min(n - b); // maximal rank: the hardest instances
    let a = random_with_submatrix_rank(&mut rng, n, b, r);
    let perm = Bmmc::linear(a).unwrap();
    let r_gamma = rank(&perm.matrix().submatrix(b..n, 0..b));

    let mut sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(geom, 2);
    sys.load_records(
        0,
        &(0..geom.records() as u64)
            .map(TaggedRecord::new)
            .collect::<Vec<_>>(),
    );
    let fac = factor(&perm, geom.b(), geom.m()).unwrap();
    let (passes, traj) =
        trace_potential(&mut sys, &fac, |rec| rec.key, |x| perm.target(x)).unwrap();

    let dmax = delta_max(geom.block(), geom.disks(), geom.lg_mb());
    let mut t = Table::new(&["after pass", "Φ", "ΔΦ", "I/Os", "gain/I/O", "Δ_max"]);
    t.row(&[
        "(start)".into(),
        format!("{:.0}", traj[0]),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{dmax:.1}"),
    ]);
    for (i, w) in traj.windows(2).enumerate() {
        let ios = passes[i].ios.parallel_ios();
        t.row(&[
            format!("{} ({:?})", i + 1, passes[i].kind),
            format!("{:.0}", w[1]),
            format!("{:+.0}", w[1] - w[0]),
            ios.to_string(),
            format!("{:.2}", (w[1] - w[0]) / ios as f64),
            format!("{dmax:.1}"),
        ]);
    }
    t.print();

    let phi0 = initial_potential_formula(geom.records(), geom.b(), r_gamma);
    let phit = final_potential(geom.records(), geom.b());
    println!(
        "\neq. (9) initial potential: {phi0:.0} (measured {:.0})",
        traj[0]
    );
    println!(
        "final potential N lg B:   {phit:.0} (measured {:.0})",
        traj.last().unwrap()
    );
    println!(
        "§7 precise lower bound:   {:.0} parallel I/Os (measured {}; Theorem 21 upper {})",
        bounds::precise_lower(&geom, r_gamma),
        passes.iter().map(|p| p.ios.parallel_ios()).sum::<u64>(),
        bounds::theorem21_upper(&geom, r_gamma)
    );
    assert!((traj[0] - phi0).abs() < 1e-6);
    assert!((traj.last().unwrap() - phit).abs() < 1e-6);
}
