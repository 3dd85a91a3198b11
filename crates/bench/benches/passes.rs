//! Wall-clock throughput of one-pass execution (MRC and MLD) —
//! the inner loop of every experiment.

use bmmc::catalog;
use bmmc::factoring::{Pass, PassKind};
use bmmc::passes::execute_pass;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdm::{DiskSystem, Geometry};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_passes(c: &mut Criterion) {
    let geom = Geometry::new(1 << 16, 1 << 4, 1 << 3, 1 << 10).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let input: Vec<u64> = (0..geom.records() as u64).collect();

    let mut group = c.benchmark_group("one_pass");
    group.throughput(Throughput::Elements(geom.records() as u64));
    group.sample_size(20);

    let mrc = catalog::random_mrc(&mut rng, geom.n(), geom.m());
    let mrc_pass = Pass {
        matrix: mrc.matrix().clone(),
        complement: mrc.complement().clone(),
        kind: PassKind::Mrc,
    };
    group.bench_function("mrc_pass_2^16", |b| {
        b.iter_batched(
            || {
                let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
                sys.load_records(0, &input);
                sys
            },
            |mut sys| execute_pass(&mut sys, 0, 1, &mrc_pass).unwrap(),
            criterion::BatchSize::LargeInput,
        )
    });

    let mld = catalog::random_mld(&mut rng, geom.n(), geom.b(), geom.m());
    let mld_pass = Pass {
        matrix: mld.matrix().clone(),
        complement: mld.complement().clone(),
        kind: PassKind::Mld,
    };
    group.bench_function("mld_pass_2^16", |b| {
        b.iter_batched(
            || {
                let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
                sys.load_records(0, &input);
                sys
            },
            |mut sys| execute_pass(&mut sys, 0, 1, &mld_pass).unwrap(),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_passes);
criterion_main!(benches);
