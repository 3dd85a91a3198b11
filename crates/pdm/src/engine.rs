//! The streaming pass engine: one memoryload at a time through memory,
//! with double-buffered I/O overlap.
//!
//! Every algorithm in this workspace — the BMMC step executor (one-pass
//! and fused steps alike), the BPC baseline chunks, external-sort run
//! formation — reduces to the same inner loop: stream the `N` records
//! through memory one `M`-record *memoryload* at a time, rearrange in
//! RAM, write back. The [`PassEngine`] is that loop, written once:
//!
//! * **reads** come from a [`ReadPlan`] per memoryload — either the
//!   `M/BD` consecutive stripes of a source memoryload (striped reads)
//!   or an arbitrary gather of independent block batches (the MLD⁻¹
//!   discipline), described by the engine-owned [`BlockBatches`]
//!   buffer the `reads` callback fills in place; a gather may name the
//!   block position each of its blocks lands at in the memoryload
//!   buffer ([`BlockBatches::push_landing`]);
//! * the caller's **transform** rearranges the `M` records in memory
//!   (a scratch memoryload buffer is provided, so the transform can
//!   fill its output in target order and swap the two buffers);
//! * **writes** go out per the returned [`WritePlan`] — striped to a
//!   target memoryload, or an independent scatter of block batches
//!   (the MLD discipline), again via an engine-owned [`BlockBatches`].
//!
//! Costs are exactly those of the hand-written loops the engine
//! replaces: each memoryload is read once and written once, so a full
//! pass is `2N/BD` parallel I/Os, with the striped/independent split
//! determined entirely by the plans. [`IoStats`](crate::IoStats) is
//! charged through the ordinary [`DiskSystem`] accounting.
//!
//! # Steady-state allocation freedom
//!
//! All plan storage is owned by the engine and reused across
//! memoryloads and passes: the gather/scatter batch buffers and their
//! cursor; the [`DiskSystem`] recycles its reference scratch, tickets
//! and block buffers. After the first pass, the engine's hot
//! loop performs **no heap allocation** on the calling thread in either
//! service mode (`crates/pdm/tests/engine_alloc.rs` asserts this with
//! a counting global allocator).
//!
//! # Overlap
//!
//! In [`ServiceMode::Threaded`] the engine runs split-phase: while the
//! CPU transforms memoryload *k*, the disk service threads are
//! already reading memoryload *k+1* and still draining the writes of
//! memoryload *k−1*. Each memoryload's reads, and its writes, are one
//! ticket of one run of commands per disk ([`crate::parallel::Cmd::more`]),
//! whatever the plan's shape: the `M/BD` parallel I/Os are admitted and
//! charged one by one, in order, and only the hop to the service
//! threads is batched — a service thread wakes at most once per run. Records
//! move through the system's reusable block buffers instead of fresh
//! allocations. The overlap is
//! backend-agnostic: on a file-backed system
//! ([`crate::system::Backend::File`]) the service threads issue real
//! positional system calls against their disks' files, so the pipeline
//! hides genuine I/O latency rather than simulated copies
//! (`engine_sweep`'s `file` section measures exactly this). In
//! [`ServiceMode::Serial`] the engine degenerates to exactly the
//! classic loop — same operations, same order, same operation
//! numbering for [fault plans](crate::FaultPlan) — and reads each
//! memoryload straight into its data buffer once the previous one is
//! written, with one copy on local disks. (With overlap enabled the
//! *set* of operations is identical but reads are issued one
//! memoryload early, so fault-plan operation indices differ from the
//! serial order. On *error* paths one further asymmetry exists, in
//! every mode: a memoryload's reads, and its writes, are each one
//! ticket whose parallel I/Os are all admitted and charged before its
//! first transfer, so a pass aborted by a backend failure part-way
//! through a ticket has charged the whole ticket, where the classic
//! loop would have stopped charging at the failed operation —
//! success-path statistics are always identical.)
//!
//! ```
//! use pdm::{DiskSystem, Geometry};
//! use pdm::engine::{PassEngine, ReadPlan, WritePlan};
//!
//! // Reverse the records of each memoryload, portion 0 → portion 1.
//! let geom = Geometry::new(64, 2, 4, 16).unwrap();
//! let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
//! sys.load_records(0, &(0..64).collect::<Vec<_>>());
//! let mut engine = PassEngine::new(geom);
//! engine
//!     .run_pass(
//!         &mut sys,
//!         |ml, _gather| ReadPlan::Memoryload { portion: 0, ml },
//!         |ml, data, _scratch, _scatter| {
//!             data.reverse();
//!             WritePlan::Memoryload { portion: 1, ml }
//!         },
//!     )
//!     .unwrap();
//! assert_eq!(sys.stats().parallel_ios() as usize, geom.ios_per_pass());
//! assert_eq!(sys.dump_records(1)[..16], (0..16).rev().collect::<Vec<u64>>());
//! ```

use crate::config::Geometry;
use crate::error::Result;
use crate::record::Record;
use crate::system::{stripe_ops, BlockRef, DiskSystem, ReadTicket, ServiceMode, WriteTicket};

/// One coalesced span of block references: `len` blocks on `disk` at
/// consecutive slots starting at `slot`, one per consecutive batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    disk: usize,
    slot: usize,
    len: usize,
}

/// A reusable run-length-encoded sequence of equal-sized
/// block-reference batches.
///
/// Each batch is one parallel I/O of `batch_len` blocks (at most one
/// per disk); batch `k`'s request `j` corresponds to buffer offset
/// `(k·batch_len + j) · B` records. References are still [`push`]ed
/// one at a time in batch-major order, but the storage is per *column*
/// (position-within-batch): column `j` receives exactly one reference
/// per batch, and [`push`] coalesces consecutive batches whose column-
/// `j` references hit the same disk at consecutive slots into one
/// `(disk, first_slot, len)` run. Block-run pass planners (the
/// `bmmc` executors feeding off block-hoisted target evaluation)
/// produce exactly such slot-sequential columns, so a whole
/// memoryload's gather or scatter plan collapses to a handful of
/// spans — carried without allocating in the steady state, preserving
/// the engine's allocation-freedom guarantee.
///
/// Consumers materialise one batch at a time into a caller-owned
/// scratch vector via [`begin`]/[`next_batch_into`] with a reusable
/// [`BatchCursor`], since the coalesced form has no per-batch slices
/// to borrow.
///
/// [`push`]: BlockBatches::push
/// [`begin`]: BlockBatches::begin
/// [`next_batch_into`]: BlockBatches::next_batch_into
#[derive(Clone, Debug, Default)]
pub struct BlockBatches {
    /// `cols[j]` holds the coalesced runs of every batch's position-`j`
    /// reference, in batch order. Inner vectors keep their capacity
    /// across [`BlockBatches::reset`].
    cols: Vec<Vec<Run>>,
    batch_len: usize,
    /// Total references pushed since the last reset.
    count: usize,
    /// Per pushed reference, in push order, the block position of the
    /// memoryload buffer its block lands at; empty when the plan lands
    /// its blocks in push order.
    landing: Vec<usize>,
}

/// Reusable iteration state for materialising a [`BlockBatches`] plan
/// batch by batch. Owned by the consumer (the [`PassEngine`]) and
/// rewound by [`BlockBatches::begin`], so steady-state iteration
/// allocates nothing once its per-column positions have grown to the
/// batch length.
#[derive(Clone, Debug, Default)]
pub struct BatchCursor {
    /// Next batch index to materialise.
    batch: usize,
    /// Number of batches in the plan being iterated.
    num_batches: usize,
    /// Per-column (run index, offset within run).
    pos: Vec<(usize, usize)>,
}

impl BlockBatches {
    /// Clears the batches and sets the per-batch length for refilling.
    /// Run storage (and its capacity) is retained and reused.
    pub fn reset(&mut self, batch_len: usize) {
        assert!(batch_len > 0, "batches must contain at least one block");
        for col in &mut self.cols {
            col.clear();
        }
        if self.cols.len() < batch_len {
            self.cols.resize_with(batch_len, Vec::new);
        }
        self.batch_len = batch_len;
        self.count = 0;
        self.landing.clear();
    }

    /// Appends one block reference to the current tail batch,
    /// extending the column's last run when `r` continues it on the
    /// same disk at the next slot.
    pub fn push(&mut self, r: BlockRef) {
        let col = &mut self.cols[self.count % self.batch_len];
        self.count += 1;
        // A column sees exactly one reference per batch, so its last
        // run always ends at the previous batch — contiguity in batch
        // index is structural and only disk/slot adjacency is checked.
        if let Some(last) = col.last_mut() {
            if last.disk == r.disk && last.slot + last.len == r.slot {
                last.len += 1;
                return;
            }
        }
        col.push(Run {
            disk: r.disk,
            slot: r.slot,
            len: 1,
        });
    }

    /// Appends one block reference like [`BlockBatches::push`] and lands
    /// its block at block position `at` of the memoryload buffer (read
    /// plans only). A plan gives a landing position for every block it
    /// pushes or for none; without them its blocks land in push order.
    pub fn push_landing(&mut self, r: BlockRef, at: usize) {
        self.push(r);
        self.landing.push(at);
    }

    /// The landing positions given by [`BlockBatches::push_landing`], in
    /// push order; empty when the blocks land in push order.
    pub fn landing(&self) -> &[usize] {
        &self.landing
    }

    /// Blocks per batch (per parallel I/O).
    pub fn batch_len(&self) -> usize {
        self.batch_len
    }

    /// Total block references pushed so far.
    pub fn total_blocks(&self) -> usize {
        self.count
    }

    /// Number of complete batches.
    pub fn num_batches(&self) -> usize {
        self.count.checked_div(self.batch_len).unwrap_or(0)
    }

    /// Number of coalesced runs across all columns — the size of the
    /// plan actually stored; `total_blocks / num_runs` is the mean
    /// span length the planner achieved.
    pub fn num_runs(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// True if no references have been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Rewinds `cursor` to the first batch of this plan.
    pub fn begin(&self, cursor: &mut BatchCursor) {
        assert!(
            self.batch_len > 0 && self.count.is_multiple_of(self.batch_len),
            "ragged batch set: {} refs with batch length {}",
            self.count,
            self.batch_len
        );
        cursor.batch = 0;
        cursor.num_batches = self.num_batches();
        cursor.pos.clear();
        cursor.pos.resize(self.batch_len, (0, 0));
    }

    /// Materialises the next batch into `out` (cleared first),
    /// advancing `cursor`. Returns `false` when the batches are
    /// exhausted, leaving `out` empty.
    pub fn next_batch_into(&self, cursor: &mut BatchCursor, out: &mut Vec<BlockRef>) -> bool {
        out.clear();
        if cursor.batch >= cursor.num_batches {
            return false;
        }
        for (col, pos) in self.cols[..self.batch_len]
            .iter()
            .zip(cursor.pos.iter_mut())
        {
            let (run_idx, off) = *pos;
            let run = col[run_idx];
            debug_assert!(off < run.len);
            out.push(BlockRef {
                disk: run.disk,
                slot: run.slot + off,
            });
            *pos = if off + 1 == run.len {
                (run_idx + 1, 0)
            } else {
                (run_idx, off + 1)
            };
        }
        cursor.batch += 1;
        true
    }
}

/// Where one memoryload's records come from.
#[derive(Clone, Copy, Debug)]
pub enum ReadPlan {
    /// The `M/BD` consecutive stripes of memoryload `ml` in `portion`,
    /// read with striped parallel I/Os.
    Memoryload {
        /// Source portion.
        portion: usize,
        /// Memoryload index within the portion.
        ml: usize,
    },
    /// Independent block batches, as filled into the engine's
    /// [`BlockBatches`] argument of the `reads` callback. The total
    /// must be exactly `M` records; slots are absolute (include the
    /// portion base). Block `i` of the batches, counted in push order,
    /// lands at block position `landing()[i]` of the data buffer when
    /// the plan gives landing positions
    /// ([`BlockBatches::push_landing`]), and at position `i` when it
    /// does not; the reads are issued in push order either way, and in
    /// both service modes.
    Gather,
}

/// Where one memoryload's records go.
#[derive(Clone, Copy, Debug)]
pub enum WritePlan {
    /// Striped writes to memoryload `ml` of `portion`.
    Memoryload {
        /// Target portion.
        portion: usize,
        /// Memoryload index within the portion.
        ml: usize,
    },
    /// Independent block batches, as filled into the engine's
    /// [`BlockBatches`] argument of the `transform` callback. The
    /// total must be exactly `M` records; slots are absolute.
    Scatter,
}

/// The reusable streaming loop. Owns two `M`-record buffers (data and
/// scratch) plus all plan storage (gather/scatter batches and the
/// batch cursor), so a multi-pass algorithm allocates its working
/// memory once and streams every subsequent memoryload
/// allocation-free.
pub struct PassEngine<R: Record> {
    data: Vec<R>,
    scratch: Vec<R>,
    /// Gather plan storage, refilled by the `reads` callback.
    gather: BlockBatches,
    /// Scatter plan storage, refilled by the `transform` callback.
    scatter: BlockBatches,
    /// Reused iteration state for the run-length batch plans.
    cursor: BatchCursor,
}

/// The batches of a gather or scatter plan, as an operation source
/// (see [`DiskSystem::begin_reads`]).
fn batch_ops<'a>(
    geom: &Geometry,
    batches: &'a BlockBatches,
    cursor: &'a mut BatchCursor,
) -> impl FnMut(&mut Vec<BlockRef>) -> bool + 'a {
    assert_eq!(
        batches.total_blocks() * geom.block(),
        geom.memory(),
        "gather and scatter plans must cover exactly one memoryload"
    );
    batches.begin(cursor);
    move |refs| batches.next_batch_into(cursor, refs)
}

impl<R: Record> PassEngine<R> {
    /// An engine for the given geometry. The transform sees one
    /// memoryload plus an `M`-record scratch buffer, mirroring the
    /// paper's in-memory rearrangement step. (The scratch buffer and
    /// the overlap-mode staging blocks are simulator conveniences that
    /// never change the charged I/O count. The merge passes of
    /// `extsort` pipeline differently: their prefetches and written-
    /// behind stripe live in the memory a merge group leaves free
    /// within `M`, because a wider working set would change the fan-in
    /// and hence the pass-count formula being measured.)
    pub fn new(geom: Geometry) -> Self {
        PassEngine {
            data: vec![R::default(); geom.memory()],
            scratch: vec![R::default(); geom.memory()],
            gather: BlockBatches::default(),
            scatter: BlockBatches::default(),
            cursor: BatchCursor::default(),
        }
    }

    /// Streams every memoryload of the system through `transform`.
    ///
    /// `reads(t, gather)` supplies the [`ReadPlan`] for memoryload `t`
    /// (`t` in `0 .. N/M`), filling `gather` in place (after a
    /// [`BlockBatches::reset`]) when it returns [`ReadPlan::Gather`];
    /// `transform(t, data, scratch, scatter)` rearranges the `M`
    /// records (leaving the result in `data`, using `scratch` freely)
    /// and returns the [`WritePlan`], filling `scatter` when it
    /// returns [`WritePlan::Scatter`]. A pass costs exactly `2N/BD`
    /// parallel I/Os.
    ///
    /// Contract for `reads`: it is called exactly once per memoryload,
    /// in increasing order, but — when overlap is active — up to one
    /// memoryload *ahead* of the corresponding `transform` call.
    /// Plan-producing state shared with `transform` must therefore be
    /// kept for two loads (e.g. indexed by `t % 2`).
    ///
    /// Hazard contract: memoryload `t+1`'s read plan must not touch
    /// blocks that the write plans of memoryloads `t` or `t−1` write.
    /// With overlap active those reads are submitted to the per-disk
    /// queues *before* load `t`'s writes, so an overlapping plan would
    /// silently read stale data in [`ServiceMode::Threaded`] while
    /// appearing correct serially. Reading from one portion and
    /// writing to a different one (what every pass in this workspace
    /// does — `execute_pass` asserts `src != dst`) satisfies this by
    /// construction.
    ///
    /// On error, all in-flight split-phase operations are drained and
    /// their buffers returned to the system's pool before the error is
    /// propagated.
    pub fn run_pass<F, G>(
        &mut self,
        sys: &mut DiskSystem<R>,
        mut reads: F,
        mut transform: G,
    ) -> Result<()>
    where
        F: FnMut(usize, &mut BlockBatches) -> ReadPlan,
        G: FnMut(usize, &mut Vec<R>, &mut Vec<R>, &mut BlockBatches) -> WritePlan,
    {
        let mut pending_read = None;
        let mut pending_write = None;
        let result = self.run_pass_inner(
            sys,
            &mut pending_read,
            &mut pending_write,
            &mut reads,
            &mut transform,
        );
        if result.is_err() {
            if let Some(t) = pending_read.take() {
                sys.discard_read(t);
            }
            if let Some(w) = pending_write.take() {
                // Transfer errors here are masked by the original
                // error; buffers are reclaimed either way.
                let _ = sys.finish_write(w);
            }
        }
        result
    }

    fn run_pass_inner<F, G>(
        &mut self,
        sys: &mut DiskSystem<R>,
        pending_read: &mut Option<ReadTicket<R>>,
        pending_write: &mut Option<WriteTicket<R>>,
        reads: &mut F,
        transform: &mut G,
    ) -> Result<()>
    where
        F: FnMut(usize, &mut BlockBatches) -> ReadPlan,
        G: FnMut(usize, &mut Vec<R>, &mut Vec<R>, &mut BlockBatches) -> WritePlan,
    {
        let geom = sys.geometry();
        let loads = geom.memoryloads();
        let mem = geom.memory();
        assert!(
            self.data.len() == mem && self.scratch.len() == mem,
            "engine built for a different geometry"
        );
        // Overlap only pays (and only changes operation ordering) when
        // the service threads can run transfers behind the CPU. In the
        // serial mode the engine degenerates to the classic loop: each
        // memoryload is read straight into the data buffer, in the
        // classic operation order.
        let overlap = sys.service_mode() == ServiceMode::Threaded;
        let spm = geom.stripes_per_memoryload();
        // The plan of the read in flight: `gather` still holds it when
        // the read is finished, because the next plan is made after.
        let mut plan = reads(0, &mut self.gather);
        *pending_read = self.read(sys, plan, overlap)?;
        for t in 0..loads {
            if let Some(ticket) = pending_read.take() {
                let at = landing(plan, &self.gather);
                sys.finish_read_at(ticket, &mut self.data, at)?;
            }
            if overlap && t + 1 < loads {
                plan = reads(t + 1, &mut self.gather);
                *pending_read = self.read(sys, plan, true)?;
            }
            let wp = transform(t, &mut self.data, &mut self.scratch, &mut self.scatter);
            // Bound the write pipeline to one memoryload: drain the
            // previous load's writes before issuing this load's.
            if let Some(w) = pending_write.take() {
                sys.finish_write(w)?;
            }
            let ticket = match wp {
                WritePlan::Memoryload { portion, ml } => {
                    let base = sys.portion_base(portion) + ml * spm;
                    sys.begin_writes(stripe_ops(&geom, base), &self.data)
                }
                WritePlan::Scatter => sys.begin_writes(
                    batch_ops(&geom, &self.scatter, &mut self.cursor),
                    &self.data,
                ),
            };
            *pending_write = Some(ticket?);
            if !overlap && t + 1 < loads {
                // Serial mode: keep the classic loop's operation
                // order (write memoryload t, then read t+1).
                if let Some(w) = pending_write.take() {
                    sys.finish_write(w)?;
                }
                let plan = reads(t + 1, &mut self.gather);
                self.read(sys, plan, false)?;
            }
        }
        if let Some(w) = pending_write.take() {
            sys.finish_write(w)?;
        }
        Ok(())
    }

    /// Issues one memoryload's reads per `plan`: in flight on a ticket
    /// with `overlap`, otherwise straight into the data buffer.
    fn read(
        &mut self,
        sys: &mut DiskSystem<R>,
        plan: ReadPlan,
        overlap: bool,
    ) -> Result<Option<ReadTicket<R>>> {
        let geom = sys.geometry();
        let (mut stripes, mut batches);
        let ops: &mut dyn FnMut(&mut Vec<BlockRef>) -> bool = match plan {
            ReadPlan::Memoryload { portion, ml } => {
                let base = sys.portion_base(portion) + ml * geom.stripes_per_memoryload();
                stripes = stripe_ops(&geom, base);
                &mut stripes
            }
            ReadPlan::Gather => {
                let landed = self.gather.landing().len();
                assert!(
                    landed == 0 || landed == self.gather.total_blocks(),
                    "a gather lands every block at a given position or none"
                );
                batches = batch_ops(&geom, &self.gather, &mut self.cursor);
                &mut batches
            }
        };
        if overlap {
            return sys.begin_reads(ops).map(Some);
        }
        sys.read_ops_into(ops, &mut self.data, landing(plan, &self.gather))?;
        Ok(None)
    }
}

/// Where the blocks of a read per `plan` land: at the gather's landing
/// positions, or in staged order (empty).
fn landing(plan: ReadPlan, gather: &BlockBatches) -> &[usize] {
    match plan {
        ReadPlan::Gather => gather.landing(),
        ReadPlan::Memoryload { .. } => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::PdmError;

    fn geom() -> Geometry {
        // N=256, B=2, D=4, M=32: 32 stripes, 8 memoryloads.
        Geometry::new(256, 2, 4, 32).unwrap()
    }

    fn identity_pass(sys: &mut DiskSystem<u64>, engine: &mut PassEngine<u64>) {
        engine
            .run_pass(
                sys,
                |ml, _g| ReadPlan::Memoryload { portion: 0, ml },
                |ml, _data, _scratch, _s| WritePlan::Memoryload { portion: 1, ml },
            )
            .unwrap();
    }

    #[test]
    fn identity_pass_costs_one_pass_every_mode() {
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let g = geom();
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode);
            let input: Vec<u64> = (0..256).collect();
            sys.load_records(0, &input);
            let mut engine = PassEngine::new(g);
            identity_pass(&mut sys, &mut engine);
            assert_eq!(sys.dump_records(1), input, "mode {mode:?}");
            let s = sys.stats();
            assert_eq!(s.parallel_ios() as usize, g.ios_per_pass());
            assert_eq!(s.striped_reads, s.parallel_reads);
            assert_eq!(s.striped_writes, s.parallel_writes);
            assert_eq!(sys.buffer_pool_stats().outstanding, 0);
        }
    }

    #[test]
    fn transform_and_scratch_swap() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..256).collect::<Vec<_>>());
        let mut engine = PassEngine::new(g);
        engine
            .run_pass(
                &mut sys,
                |ml, _g| ReadPlan::Memoryload { portion: 0, ml },
                |ml, data, scratch, _s| {
                    // Out-of-place reversal via scratch, then swap.
                    for (i, &r) in data.iter().enumerate() {
                        scratch[data.len() - 1 - i] = r;
                    }
                    std::mem::swap(data, scratch);
                    WritePlan::Memoryload { portion: 1, ml }
                },
            )
            .unwrap();
        let out = sys.dump_records(1);
        let mem = g.memory();
        for ml in 0..g.memoryloads() {
            let chunk = &out[ml * mem..(ml + 1) * mem];
            let expect: Vec<u64> = ((ml * mem) as u64..((ml + 1) * mem) as u64).rev().collect();
            assert_eq!(chunk, &expect[..]);
        }
    }

    #[test]
    fn gather_and_scatter_plans_round_trip() {
        // Gather reads the memoryload's stripes as explicit independent
        // batches (same blocks, so the data round-trips), scatter
        // writes them back likewise; both are classified independent
        // only when not all slots align — here they do align, so this
        // checks plan bookkeeping rather than classification.
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let input: Vec<u64> = (0..256).map(|i| i * 3).collect();
        sys.load_records(0, &input);
        let spm = g.stripes_per_memoryload();
        let dst_base = sys.portion_base(1);
        let mut engine = PassEngine::new(g);
        engine
            .run_pass(
                &mut sys,
                |ml, gather| {
                    gather.reset(g.disks());
                    for s in 0..spm {
                        for disk in 0..g.disks() {
                            gather.push(BlockRef {
                                disk,
                                slot: ml * spm + s,
                            });
                        }
                    }
                    ReadPlan::Gather
                },
                |ml, _data, _scratch, scatter| {
                    scatter.reset(g.disks());
                    for s in 0..spm {
                        for disk in 0..g.disks() {
                            scatter.push(BlockRef {
                                disk,
                                slot: dst_base + ml * spm + s,
                            });
                        }
                    }
                    WritePlan::Scatter
                },
            )
            .unwrap();
        assert_eq!(sys.dump_records(1), input);
        assert_eq!(sys.stats().parallel_ios() as usize, g.ios_per_pass());
    }

    #[test]
    fn a_gather_lands_each_block_at_its_position() {
        // Gather each memoryload's blocks in stripe order but land them
        // in reverse block order; a later striped read of the same
        // engine lands in staged order again.
        let g = geom();
        let blocks = g.blocks_per_memoryload();
        let input: Vec<u64> = (0..256u64).map(|i| i * 5).collect();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode);
            sys.load_records(0, &input);
            let spm = g.stripes_per_memoryload();
            let mut engine = PassEngine::new(g);
            engine
                .run_pass(
                    &mut sys,
                    |ml, gather| {
                        gather.reset(g.disks());
                        for k in 0..blocks {
                            let r = BlockRef {
                                disk: k % g.disks(),
                                slot: ml * spm + k / g.disks(),
                            };
                            gather.push_landing(r, blocks - 1 - k);
                        }
                        ReadPlan::Gather
                    },
                    |ml, _, _, _| WritePlan::Memoryload { portion: 1, ml },
                )
                .unwrap();
            let expect: Vec<u64> = input
                .chunks(g.memory())
                .flat_map(|ml| ml.chunks(g.block()).rev().flatten().copied())
                .collect();
            assert_eq!(sys.dump_records(1), expect, "mode {mode:?}");
            identity_pass(&mut sys, &mut engine);
            assert_eq!(sys.dump_records(1), input, "mode {mode:?}");
            assert_eq!(sys.stats().parallel_ios() as usize, 2 * g.ios_per_pass());
        }
    }

    #[test]
    fn threaded_overlap_matches_serial_stats_and_output() {
        let g = geom();
        let input: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(17)).collect();
        let run = |mode: ServiceMode| {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode);
            sys.load_records(0, &input);
            let mut engine = PassEngine::new(g);
            engine
                .run_pass(
                    &mut sys,
                    |ml, _g| ReadPlan::Memoryload { portion: 0, ml },
                    |ml, data, _, _| {
                        data.rotate_left(3);
                        WritePlan::Memoryload {
                            portion: 1,
                            ml: (ml + 1) % g.memoryloads(),
                        }
                    },
                )
                .unwrap();
            (sys.stats(), sys.dump_records(1))
        };
        let (serial_stats, serial_out) = run(ServiceMode::Serial);
        let (threaded_stats, threaded_out) = run(ServiceMode::Threaded);
        assert_eq!(serial_stats, threaded_stats);
        assert_eq!(serial_out, threaded_out);
    }

    #[test]
    fn fault_aborts_cleanly_without_stranding_buffers() {
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let g = geom();
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode);
            sys.load_records(0, &(0..256).collect::<Vec<_>>());
            // Fault somewhere in the middle of the pass.
            sys.set_faults(FaultPlan::new().fail_at(7, 1));
            let mut engine = PassEngine::new(g);
            let err = engine
                .run_pass(
                    &mut sys,
                    |ml, _g| ReadPlan::Memoryload { portion: 0, ml },
                    |ml, _, _, _| WritePlan::Memoryload { portion: 1, ml },
                )
                .unwrap_err();
            assert!(matches!(err, PdmError::Fault { .. }), "mode {mode:?}");
            // Op 7 is refused mid-ticket (memoryload 1's reads when
            // threaded, memoryload 0's writes serially); the 7 ops
            // admitted before it stay charged.
            assert_eq!(sys.stats().parallel_ios(), 7, "mode {mode:?}");
            assert_eq!(
                sys.buffer_pool_stats().outstanding,
                0,
                "engine abort stranded pooled buffers in mode {mode:?}"
            );
        }
    }

    #[test]
    fn a_disconnected_run_is_respawned_and_resubmitted_whole() {
        // N=256, B=2, D=4, M=32: 4 stripes per memoryload. Threaded,
        // ops 0–3 read memoryload 0, ops 4–7 read memoryload 1, and
        // ops 8–11 write memoryload 0.
        let g = geom();
        let input: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(7)).collect();
        let run = |plan: FaultPlan| {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(ServiceMode::Threaded);
            sys.set_retry_policy(crate::RetryPolicy::fault_tolerant());
            sys.load_records(0, &input);
            sys.set_faults(plan);
            identity_pass(&mut sys, &mut PassEngine::new(g));
            assert_eq!(sys.buffer_pool_stats().outstanding, 0);
            (sys.dump_records(1), sys.stats(), sys.retry_stats())
        };
        let (clean_out, clean_io, _) = run(FaultPlan::new());
        // Disk 2's link drops at op 5: memoryload 1's 4-block read run
        // on disk 2 fails, and so does memoryload 0's write run,
        // submitted before the read ticket drains. Each run is revived
        // once (one retry each) and resubmitted whole.
        let (out, io, retry) = run(FaultPlan::new().disconnect_at(5, 2));
        assert_eq!(out, clean_out);
        assert_eq!(io, clean_io, "recovered pass charged once");
        assert_eq!((retry.respawns, retry.retries), (1, 2));
        assert_eq!(retry.attempts, io.parallel_ios() + retry.retries);
    }

    #[test]
    fn a_timeout_budget_stretches_over_a_memoryload_run() {
        use crate::backend::{DiskUnit, MemDisk};
        use crate::parallel::{InProcTransport, Transport};
        /// A memory disk that takes 2 ms per block.
        struct Slow(MemDisk<u64>);
        impl DiskUnit<u64> for Slow {
            fn slots(&self) -> usize {
                self.0.slots()
            }
            fn block(&self) -> usize {
                DiskUnit::<u64>::block(&self.0)
            }
            fn read(&mut self, slot: usize, out: &mut [u64]) -> crate::Result<()> {
                std::thread::sleep(std::time::Duration::from_millis(2));
                self.0.read(slot, out)
            }
            fn write(&mut self, slot: usize, data: &[u64]) -> crate::Result<()> {
                std::thread::sleep(std::time::Duration::from_millis(2));
                self.0.write(slot, data)
            }
        }
        // N=512, B=2, D=4, M=64: each disk answers runs of 8 blocks, so
        // a run takes 16 ms against a 12 ms per-operation budget. The
        // memoryload's ticket of 8 operations may wait 96 ms.
        let g = Geometry::new(512, 2, 4, 64).unwrap();
        let transports = (0..g.disks())
            .map(|d| {
                let unit = Slow(MemDisk::new(g.block(), 2 * g.stripes()));
                Box::new(InProcTransport::new(d, Box::new(unit))) as Box<dyn Transport<u64>>
            })
            .collect();
        let mut sys = DiskSystem::new_from_transports(g, 2, transports);
        sys.set_threaded(true);
        sys.set_retry_policy(crate::RetryPolicy {
            op_timeout_ms: Some(12),
            ..crate::RetryPolicy::default()
        });
        let input: Vec<u64> = (0..512).collect();
        sys.load_records(0, &input);
        identity_pass(&mut sys, &mut PassEngine::new(g));
        assert!(sys.retry_stats().is_clean(), "{:?}", sys.retry_stats());
        assert_eq!(sys.dump_records(1), input);
    }

    #[test]
    fn engine_reuse_across_passes() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let input: Vec<u64> = (0..256).collect();
        sys.load_records(0, &input);
        let mut engine = PassEngine::new(g);
        identity_pass(&mut sys, &mut engine);
        // Second pass back into portion 0, reusing the same buffers.
        engine
            .run_pass(
                &mut sys,
                |ml, _g| ReadPlan::Memoryload { portion: 1, ml },
                |ml, _d, _s, _b| WritePlan::Memoryload { portion: 0, ml },
            )
            .unwrap();
        assert_eq!(sys.dump_records(0), input);
        assert_eq!(sys.stats().parallel_ios() as usize, 2 * g.ios_per_pass());
    }

    #[test]
    fn block_batches_bookkeeping() {
        let mut b = BlockBatches::default();
        b.reset(2);
        for slot in 0..4 {
            b.push(BlockRef { disk: 0, slot });
            b.push(BlockRef { disk: 1, slot });
        }
        assert_eq!(b.batch_len(), 2);
        assert_eq!(b.num_batches(), 4);
        assert_eq!(b.total_blocks(), 8);
        // Slot-sequential columns coalesce to one run per column.
        assert_eq!(b.num_runs(), 2);
        // Materialisation reproduces the pushed batch-major order.
        let mut cursor = BatchCursor::default();
        let mut out = Vec::new();
        b.begin(&mut cursor);
        let mut batches = 0;
        while b.next_batch_into(&mut cursor, &mut out) {
            assert_eq!(
                out,
                vec![
                    BlockRef {
                        disk: 0,
                        slot: batches
                    },
                    BlockRef {
                        disk: 1,
                        slot: batches
                    }
                ]
            );
            batches += 1;
        }
        assert_eq!(batches, 4);
        // Reset reuses the storage with a new shape.
        b.reset(4);
        assert!(b.is_empty());
        assert_eq!(b.num_batches(), 0);
        assert_eq!(b.num_runs(), 0);
    }

    #[test]
    fn block_batches_breaks_runs_on_disk_or_slot_discontinuity() {
        let mut b = BlockBatches::default();
        b.reset(1);
        // slot run broken by a gap, then by a disk change.
        for r in [
            BlockRef { disk: 0, slot: 0 },
            BlockRef { disk: 0, slot: 1 },
            BlockRef { disk: 0, slot: 3 },
            BlockRef { disk: 1, slot: 4 },
        ] {
            b.push(r);
        }
        assert_eq!(b.num_runs(), 3);
        assert_eq!(b.total_blocks(), 4);
        let mut cursor = BatchCursor::default();
        let mut out = Vec::new();
        let mut got = Vec::new();
        b.begin(&mut cursor);
        while b.next_batch_into(&mut cursor, &mut out) {
            got.extend(out.iter().copied());
        }
        assert_eq!(
            got,
            vec![
                BlockRef { disk: 0, slot: 0 },
                BlockRef { disk: 0, slot: 1 },
                BlockRef { disk: 0, slot: 3 },
                BlockRef { disk: 1, slot: 4 },
            ]
        );
    }
}
