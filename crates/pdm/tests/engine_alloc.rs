//! Steady-state allocation freedom of the engine hot loop.
//!
//! The [`pdm::PassEngine`] owns all its plan storage — the memoryload
//! buffers, the run-length [`pdm::BlockBatches`] gather/scatter sets
//! (plus the [`pdm::BatchCursor`] that materialises their batches) —
//! and the [`pdm::DiskSystem`] reuses its validation and reference
//! scratch, its block buffers and its tickets (completion queue
//! included). After a warm-up pass, streaming further passes
//! through the engine must perform **zero** heap allocations on the
//! calling thread, for striped and for gather/scatter plans alike, in
//! the serial and in the threaded service mode.
//!
//! Verified the blunt way: a counting `#[global_allocator]` wraps the
//! system allocator, and the second pass must leave the counter
//! untouched. The count is per thread, so tests running in parallel
//! cannot count each other's allocations, and a threaded pass's disk
//! service threads (which fill the completion queues) do not count
//! either: the calling thread's submits and drains do.

use pdm::engine::{PassEngine, ReadPlan, WritePlan};
use pdm::{BlockRef, DiskSystem, Geometry, ServiceMode};
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

/// N=512, B=2, D=4, M=64: 8 memoryloads of 8 stripes each.
fn geom() -> Geometry {
    Geometry::new(512, 2, 4, 64).unwrap()
}

/// Allocations of one steady-state striped pass in `mode`, after a
/// warm-up pass.
fn striped_pass_allocations(mode: ServiceMode) -> u64 {
    let g = geom();
    let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
    sys.set_service_mode(mode);
    sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
    let mut engine = PassEngine::new(g);
    let run = |sys: &mut DiskSystem<u64>, engine: &mut PassEngine<u64>, src, dst| {
        engine
            .run_pass(
                sys,
                |ml, _gather| ReadPlan::Memoryload { portion: src, ml },
                |ml, data, _scratch, _scatter| {
                    data.reverse();
                    WritePlan::Memoryload { portion: dst, ml }
                },
            )
            .unwrap();
    };
    run(&mut sys, &mut engine, 0, 1); // warm-up
    let before = allocations();
    run(&mut sys, &mut engine, 1, 0);
    allocations() - before
}

#[test]
fn striped_pass_is_allocation_free_after_warmup() {
    assert_eq!(
        striped_pass_allocations(ServiceMode::Serial),
        0,
        "striped engine pass allocated in steady state"
    );
}

#[test]
fn threaded_striped_pass_is_allocation_free_after_warmup() {
    assert_eq!(
        striped_pass_allocations(ServiceMode::Threaded),
        0,
        "threaded striped engine pass allocated in steady state"
    );
}

/// The file backend must not break the guarantee: `FileDisk` transfers
/// serialize through a staging buffer allocated once at creation, so a
/// steady-state pass over real files is as allocation-free as the
/// MemDisk one (the data just additionally crosses a syscall).
#[test]
fn file_backed_striped_pass_is_allocation_free_after_warmup() {
    let g = geom();
    let dir = pdm::TempDir::new("pdm-alloc-file");
    let mut sys: DiskSystem<u64> = DiskSystem::new_file(g, 2, dir.path()).unwrap();
    sys.set_service_mode(ServiceMode::Serial);
    sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
    let mut engine = PassEngine::new(g);
    let run = |sys: &mut DiskSystem<u64>, engine: &mut PassEngine<u64>, src, dst| {
        engine
            .run_pass(
                sys,
                |ml, _gather| ReadPlan::Memoryload { portion: src, ml },
                |ml, data, _scratch, _scatter| {
                    data.reverse();
                    WritePlan::Memoryload { portion: dst, ml }
                },
            )
            .unwrap();
    };
    run(&mut sys, &mut engine, 0, 1); // warm-up
    let before = allocations();
    run(&mut sys, &mut engine, 1, 0);
    assert_eq!(
        allocations() - before,
        0,
        "file-backed engine pass allocated in steady state"
    );
    assert_eq!(
        sys.dump_records(0),
        (0..g.records() as u64).collect::<Vec<_>>()
    );
}

/// Allocations of one steady-state gather/scatter pass in `mode`,
/// after a warm-up pass.
fn gather_scatter_pass_allocations(mode: ServiceMode) -> u64 {
    let g = geom();
    let spm = g.stripes_per_memoryload();
    let disks = g.disks();
    let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
    sys.set_service_mode(mode);
    sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
    let bases = [sys.portion_base(0), sys.portion_base(1)];
    let mut engine = PassEngine::new(g);
    // Gather the memoryload's stripes as explicit independent batches
    // and scatter them back likewise — the plan *shapes* the fused
    // executors use, with closures that themselves allocate nothing.
    let run = |sys: &mut DiskSystem<u64>, engine: &mut PassEngine<u64>, src: usize, dst: usize| {
        engine
            .run_pass(
                sys,
                |ml, gather| {
                    gather.reset(disks);
                    for s in 0..spm {
                        for disk in 0..disks {
                            gather.push(BlockRef {
                                disk,
                                slot: bases[src] + ml * spm + s,
                            });
                        }
                    }
                    ReadPlan::Gather
                },
                |ml, _data, _scratch, scatter| {
                    scatter.reset(disks);
                    for s in 0..spm {
                        for disk in 0..disks {
                            scatter.push(BlockRef {
                                disk,
                                slot: bases[dst] + ml * spm + s,
                            });
                        }
                    }
                    WritePlan::Scatter
                },
            )
            .unwrap();
    };
    run(&mut sys, &mut engine, 0, 1); // warm-up
    let before = allocations();
    run(&mut sys, &mut engine, 1, 0);
    let allocated = allocations() - before;
    assert_eq!(
        sys.dump_records(0),
        (0..g.records() as u64).collect::<Vec<_>>()
    );
    allocated
}

#[test]
fn gather_scatter_pass_is_allocation_free_after_warmup() {
    assert_eq!(
        gather_scatter_pass_allocations(ServiceMode::Serial),
        0,
        "gather/scatter engine pass allocated in steady state"
    );
}

#[test]
fn threaded_gather_scatter_pass_is_allocation_free_after_warmup() {
    assert_eq!(
        gather_scatter_pass_allocations(ServiceMode::Threaded),
        0,
        "threaded gather/scatter engine pass allocated in steady state"
    );
}

/// Allocations of a steady-state round of the public striped calls in
/// `mode` — a [`DiskSystem::read_stripe_into`] and a
/// [`DiskSystem::write_stripe`] per stripe, the external merge's
/// synchronous transfers — and of its refill path, a two-operation
/// [`DiskSystem::begin_reads`] landed by
/// [`DiskSystem::finish_read_with`], after a warm-up round.
fn stripe_calls_allocations(mode: ServiceMode) -> u64 {
    let g = geom();
    let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
    sys.set_service_mode(mode);
    sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
    let target = sys.portion_base(1);
    let mut buf = vec![0u64; g.block() * g.disks()];
    let mut landed = [0u64; 2];
    let round = |sys: &mut DiskSystem<u64>, buf: &mut [u64], landed: &mut [u64; 2]| {
        for stripe in 0..g.stripes() {
            sys.read_stripe_into(stripe, buf).unwrap();
            sys.write_stripe(target + stripe, buf).unwrap();
            // Two single-block refills in one ticket, each block
            // landed in its own place.
            let mut ops = [0, 1]
                .map(|disk| BlockRef { disk, slot: stripe })
                .into_iter();
            let ticket = sys
                .begin_reads(|refs| {
                    refs.clear();
                    refs.extend(ops.next());
                    !refs.is_empty()
                })
                .unwrap();
            sys.finish_read_with(ticket, |i, block| landed[i] = block[0])
                .unwrap();
            assert_eq!(*landed, [buf[0], buf[g.block()]]);
        }
    };
    round(&mut sys, &mut buf, &mut landed); // warm-up
    let before = allocations();
    round(&mut sys, &mut buf, &mut landed);
    let allocated = allocations() - before;
    assert_eq!(
        sys.dump_records(1),
        (0..g.records() as u64).collect::<Vec<_>>()
    );
    allocated
}

#[test]
fn stripe_calls_are_allocation_free_after_warmup() {
    for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
        assert_eq!(
            stripe_calls_allocations(mode),
            0,
            "striped read/write calls allocated in steady state ({mode:?})"
        );
    }
}
