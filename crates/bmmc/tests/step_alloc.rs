//! A warm step allocates nothing per memoryload.
//!
//! The step executor (`fusion::execute_fused_with_strategy`) builds its
//! evaluators (the forward and inverse maps of the landed units), its
//! gather bookkeeping and landing positions, its index table, and its
//! target-block and fill-stamp tables once per step, and gathers every
//! memoryload into the engine's scratch buffer, so the allocations of
//! one step must not grow with the number of memoryloads. Each of the
//! four step shapes — MRC, MLD, MLD⁻¹ and the Section 7 `Y∘Z⁻¹`
//! gather→scatter step — runs once warm at N=2^14 and at N=2^16 (4×
//! the memoryloads, same B, D and M), in the serial and the threaded
//! service mode, and the larger run may allocate only a few more times:
//! the per-step evaluator tables grow with `n`, not with `N/M`.
//!
//! Counted the way `crates/pdm/tests/engine_alloc.rs` counts: a
//! counting `#[global_allocator]` with a per-thread counter, so tests
//! running in parallel, and a threaded step's disk service threads, do
//! not count.

use bmmc::fusion::{execute_fused_with_strategy, FusedPass};
use bmmc::{catalog, Bmmc, EvalStrategy, Pass, PassKind};
use pdm::{DiskSystem, Geometry, PassEngine, ServiceMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's `layout` guarantees are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: as for `dealloc`; the caller's size rules pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// B=2^3, D=2^2, M=2^8 at N=2^n.
fn geom(n: usize) -> Geometry {
    Geometry::new(1 << n, 1 << 3, 1 << 2, 1 << 8).unwrap()
}

/// The four step shapes at `g`: (label, step).
fn shapes(g: Geometry) -> Vec<(&'static str, FusedPass)> {
    let mut rng = StdRng::seed_from_u64(2001);
    let (n, b, m) = (g.n(), g.b(), g.m());
    let single = |perm: Bmmc, kind| {
        FusedPass::from_single(&Pass {
            matrix: perm.matrix().clone(),
            complement: perm.complement().clone(),
            kind,
        })
    };
    let mrc = single(catalog::random_mrc(&mut rng, n, m), PassKind::Mrc);
    let mld = single(catalog::random_mld(&mut rng, n, b, m), PassKind::Mld);
    let mld_inv = single(
        catalog::random_mld(&mut rng, n, b, m).inverse(),
        PassKind::MldInverse,
    );
    let y = catalog::random_mld(&mut rng, n, b, m);
    let z = catalog::random_mld(&mut rng, n, b, m);
    vec![
        ("MRC", mrc),
        ("MLD", mld),
        ("MLD⁻¹", mld_inv),
        ("Y∘Z⁻¹", FusedPass::mld_pair(&y, &z)),
    ]
}

/// Allocations of one warm step of `step` at `g` in `mode`: the step
/// runs once to warm the engine and the system, then once counted.
fn warm_step_allocations(g: Geometry, step: &FusedPass, mode: ServiceMode) -> u64 {
    let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
    sys.set_service_mode(mode);
    sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
    let mut engine = PassEngine::new(g);
    let strategy = EvalStrategy::default();
    execute_fused_with_strategy(&mut engine, &mut sys, 0, 1, step, strategy).unwrap();
    let before = allocations();
    execute_fused_with_strategy(&mut engine, &mut sys, 1, 0, step, strategy).unwrap();
    allocations() - before
}

fn assert_no_per_memoryload_allocation(mode: ServiceMode) {
    let (small, large) = (geom(14), geom(16));
    for ((label, small_step), (_, large_step)) in shapes(small).iter().zip(&shapes(large)) {
        let at_small = warm_step_allocations(small, small_step, mode);
        let at_large = warm_step_allocations(large, large_step, mode);
        assert!(
            at_large < at_small + 16,
            "{label} step in {mode:?} mode: {at_small} allocations at N=2^14 but \
             {at_large} at N=2^16 (4× the memoryloads)"
        );
    }
}

#[test]
fn serial_steps_allocate_nothing_per_memoryload() {
    assert_no_per_memoryload_allocation(ServiceMode::Serial);
}

#[test]
fn threaded_steps_allocate_nothing_per_memoryload() {
    assert_no_per_memoryload_allocation(ServiceMode::Threaded);
}
