//! End-to-end wall-clock benchmarks: the full BMMC algorithm vs the
//! external-sort baseline, plus the DESIGN.md ablations — serial vs
//! threaded disk service, and memory vs file backends.

use bmmc::algorithm::perform_bmmc;
use bmmc::catalog;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use extsort::general_permute;
use pdm::{DiskSystem, Geometry};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_algorithms(c: &mut Criterion) {
    let geom = Geometry::new(1 << 16, 1 << 4, 1 << 3, 1 << 10).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let perm = catalog::random_bmmc(&mut rng, geom.n());
    let input: Vec<u64> = (0..geom.records() as u64).collect();

    let mut group = c.benchmark_group("end_to_end");
    group.throughput(Throughput::Elements(geom.records() as u64));
    group.sample_size(15);

    group.bench_function("bmmc_2^16", |b| {
        b.iter_batched(
            || {
                let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
                sys.load_records(0, &input);
                sys
            },
            |mut sys| perform_bmmc(&mut sys, &perm).unwrap(),
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("sort_baseline_2^16", |b| {
        let p = perm.clone();
        b.iter_batched(
            || {
                let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
                sys.load_records(0, &input);
                sys
            },
            move |mut sys| general_permute(&mut sys, |&x| x, |x| p.target(x)).unwrap(),
            criterion::BatchSize::LargeInput,
        )
    });

    // Ablation: threaded (min(D, available_parallelism) service
    // threads) vs serial service on
    // the memory backend — measures pure dispatch overhead.
    group.bench_function("bmmc_2^16_threaded_disks", |b| {
        b.iter_batched(
            || {
                let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
                sys.set_threaded(true);
                sys.load_records(0, &input);
                sys
            },
            |mut sys| perform_bmmc(&mut sys, &perm).unwrap(),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();

    // Ablation: real files, serial vs threaded service.
    let mut fgroup = c.benchmark_group("file_backend");
    fgroup.sample_size(10);
    let fgeom = Geometry::new(1 << 14, 1 << 4, 1 << 3, 1 << 9).unwrap();
    let finput: Vec<u64> = (0..fgeom.records() as u64).collect();
    let fperm = catalog::random_bmmc(&mut rng, fgeom.n());
    for threaded in [false, true] {
        let name = if threaded {
            "bmmc_2^14_file_threaded"
        } else {
            "bmmc_2^14_file_serial"
        };
        let dir = std::env::temp_dir().join(format!("bmmc-bench-{name}"));
        fgroup.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut sys: DiskSystem<u64> = DiskSystem::new_file(fgeom, 2, &dir).unwrap();
                    sys.set_threaded(threaded);
                    sys.load_records(0, &finput);
                    sys
                },
                |mut sys| perform_bmmc(&mut sys, &fperm).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    fgroup.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
