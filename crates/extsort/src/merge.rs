//! External merge sort on the parallel disk model, in two merge
//! flavours (see DESIGN.md for the full cost table), and the exact
//! replay of its merge schedule ([`merge_sort_levels`]) that the
//! planner costs the sort route with.
//!
//! 1. **Run formation**: each memoryload streams through the shared
//!    [`PassEngine`] — striped reads, in-memory sort,
//!    striped writes back as a sorted run of `M` records — one pass,
//!    `2N/BD` parallel I/Os. In [`pdm::ServiceMode::Threaded`] the
//!    engine overlaps the reads of memoryload *k+1* with the sort of
//!    memoryload *k*.
//! 2. **Merge passes**: groups of up to `F` consecutive runs are
//!    merged, where `F` depends on the [`MergeStrategy`]. A leftover
//!    group of a *single* run is never copied: it stays where it is
//!    (zero I/O) and `Run::portion` records which portion it lives
//!    in for the next pass.
//!
//! # Merge strategies
//!
//! * [`MergeStrategy::SingleBuffered`] (the default): each active run
//!   buffers one stripe (`B·D` records) and the output buffers one
//!   stripe, so memory holds at most `(F+1)·BD = M` records and
//!   `F₁ = M/BD − 1`. Every transfer is a striped parallel I/O through
//!   a reusable stripe buffer ([`pdm::DiskSystem::read_stripe_into`]);
//!   a full merge pass costs exactly `2N/BD`.
//! * [`MergeStrategy::Forecast`]: the Vitter–Shriver forecasting
//!   merge at *block* granularity. Each run buffers a single block
//!   (`B` records) and carries a **forecasting key** — the key of the
//!   last record of its current block. Blocks within a run are sorted,
//!   so the run whose forecasting key is smallest is *exactly* the run
//!   whose buffer empties next; its next block is prefetched
//!   split-phase into one shared landing block while the heap drains.
//!   Memory holds `F` run blocks, the landing block, and the output
//!   stripe: `F₂ = M/B − D − 1 = Θ(M/B)` — a factor ~`D` more fan-in
//!   than `F₁`, hence strictly fewer merge passes whenever the
//!   single-buffered sort needs more than one. The price is the read
//!   discipline: refills are independent single-block parallel I/Os
//!   (`D` read operations per stripe instead of one striped read), so
//!   a forecast merge pass charges `(D+1)·N/BD` parallel I/Os against
//!   the single-buffered `2N/BD`. Fewer passes, or cheaper passes:
//!   [`merge_sort_ios`] computes both sides exactly and the
//!   `engine_sweep` extsort section measures them.

use pdm::engine::{ReadPlan, WritePlan};
use pdm::{
    BlockRef, DiskSystem, Geometry, IoStats, MsgStats, PassEngine, PdmError, ReadTicket, Record,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the merge passes buffer their runs. See the module docs for the
/// cost trade-offs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergeStrategy {
    /// One stripe buffer per run, striped I/O only, fan-in
    /// `M/BD − 1`. The memory-model-faithful default.
    #[default]
    SingleBuffered,
    /// One *block* buffer per run plus a forecasting key driving a
    /// single split-phase block prefetch, fan-in `M/B − D − 1`.
    Forecast,
}

impl MergeStrategy {
    /// Every strategy, in the order the planner lists its candidates
    /// (and breaks cost ties).
    pub const ALL: [MergeStrategy; 2] = [MergeStrategy::SingleBuffered, MergeStrategy::Forecast];

    /// The merge fan-in this strategy reaches on `geom` (may be < 2,
    /// in which case [`sort_by_key_with`] rejects the geometry).
    pub fn fan_in(&self, geom: &Geometry) -> usize {
        match self {
            MergeStrategy::SingleBuffered => geom.stripes_per_memoryload().saturating_sub(1),
            MergeStrategy::Forecast => geom
                .blocks_per_memoryload()
                .saturating_sub(geom.disks() + 1),
        }
    }

    /// Parallel *read* operations charged per merged stripe: the
    /// single-buffered merge reads one stripe per operation, the
    /// forecasting merge one block.
    fn reads_per_stripe(&self, geom: &Geometry) -> u64 {
        match self {
            MergeStrategy::SingleBuffered => 1,
            MergeStrategy::Forecast => geom.disks() as u64,
        }
    }

    /// Stable lower-case label (`single`, `forecast`) used by the CLI
    /// flag and the bench row keys.
    pub fn as_str(&self) -> &'static str {
        match self {
            MergeStrategy::SingleBuffered => "single",
            MergeStrategy::Forecast => "forecast",
        }
    }
}

impl std::str::FromStr for MergeStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MergeStrategy::ALL
            .into_iter()
            .find(|m| m.as_str() == s)
            .ok_or_else(|| format!("unknown merge strategy {s:?} (expected single | forecast)"))
    }
}

/// One merge level of the sort's schedule, as replayed by
/// [`merge_sort_levels`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeLevel {
    /// Groups of ≥ 2 runs actually merged on this level.
    pub merged_groups: usize,
    /// Leftover groups of one run, left in place at zero I/O.
    pub singleton_groups: usize,
    /// Total stripes flowing through the merged groups: each costs
    /// `reads_per_stripe` parallel reads plus one striped write.
    pub merged_stripes: u64,
    /// Exact parallel I/Os of this level,
    /// `merged_stripes · (reads_per_stripe + 1)`.
    pub parallel_ios: u64,
}

/// Replays the merge schedule of [`sort_by_key_with`] exactly — run
/// sizes, `chunks(fan_in)` grouping, and the leftover-singleton rule (a
/// group of one run stays in place, zero I/O) — returning one
/// [`MergeLevel`] per merge pass (run formation excluded). `None` when
/// memory is too small to merge (fan-in < 2).
pub fn merge_sort_levels(geom: &Geometry, strategy: MergeStrategy) -> Option<Vec<MergeLevel>> {
    let fan_in = strategy.fan_in(geom);
    if fan_in < 2 {
        return None;
    }
    let reads_per_stripe = strategy.reads_per_stripe(geom);
    let mut levels = Vec::new();
    // Run sizes in stripes.
    let mut runs: Vec<usize> = vec![geom.stripes_per_memoryload(); geom.memoryloads()];
    while runs.len() > 1 {
        let mut level = MergeLevel {
            merged_groups: 0,
            singleton_groups: 0,
            merged_stripes: 0,
            parallel_ios: 0,
        };
        let mut next = Vec::with_capacity(runs.len().div_ceil(fan_in));
        for group in runs.chunks(fan_in) {
            if group.len() == 1 {
                level.singleton_groups += 1;
                next.push(group[0]);
                continue;
            }
            let stripes: u64 = group.iter().map(|&s| s as u64).sum();
            level.merged_groups += 1;
            level.merged_stripes += stripes;
            level.parallel_ios += stripes * (reads_per_stripe + 1);
            next.push(group.iter().sum());
        }
        runs = next;
        levels.push(level);
    }
    Some(levels)
}

/// The exact parallel-I/O count of [`sort_by_key_with`] under
/// `strategy`: run formation (`2N/BD`) plus, per merge pass, the
/// reads and one striped write per stripe of every *merged* group —
/// leftover singleton groups stay in place and charge nothing. `None`
/// when memory is too small to merge (fan-in < 2).
pub fn merge_sort_ios(geom: &Geometry, strategy: MergeStrategy) -> Option<u64> {
    let levels = merge_sort_levels(geom, strategy)?;
    Some(geom.ios_per_pass() as u64 + levels.iter().map(|l| l.parallel_ios).sum::<u64>())
}

/// The exact pass count (run formation + merge passes) of
/// [`sort_by_key_with`] under `strategy`; `None` when memory is too
/// small to merge.
pub fn merge_sort_passes(geom: &Geometry, strategy: MergeStrategy) -> Option<usize> {
    merge_sort_levels(geom, strategy).map(|levels| 1 + levels.len())
}

/// Configuration for [`sort_by_key_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SortConfig {
    /// Which merge strategy the merge passes use (see [`MergeStrategy`]
    /// and the module docs). Default: [`MergeStrategy::SingleBuffered`].
    pub merge: MergeStrategy,
}

/// Outcome of an external sort.
#[derive(Clone, Copy, Debug)]
pub struct SortReport {
    /// Number of passes over the data (run formation + merge passes).
    pub passes: usize,
    /// The merge fan-in actually used — the strategy's own value
    /// ([`MergeStrategy::fan_in`]): `M/BD − 1` single-buffered,
    /// `M/B − D − 1` forecasting.
    pub fan_in: usize,
    /// The merge strategy that produced this report (so benches and
    /// the CLI can label rows).
    pub strategy: MergeStrategy,
    /// Total I/O.
    pub total: IoStats,
    /// Transport messages and wire bytes moved by the whole sort —
    /// identically zero when the disk system is served in process.
    pub msgs: MsgStats,
    /// Portion holding the sorted data.
    pub final_portion: usize,
}

/// A run: a contiguous range of stripes, sorted by key, living in
/// `portion`. Between passes runs may live in *either* portion: a
/// leftover singleton group is left in place (zero I/O) rather than
/// copied, so the next pass finds it where the previous one did.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: usize,
    end: usize, // exclusive, in stripes
    portion: usize,
}

/// One run being consumed during a single-buffered merge: a reusable
/// one-stripe buffer plus the read cursor.
struct Cursor<R> {
    run: Run,
    /// `portion_base` of the run's portion.
    base: usize,
    next_stripe: usize,
    buf: Vec<R>,
    /// Valid records in `buf` (0 until the first refill).
    filled: usize,
    pos: usize,
}

impl<R: Record> Cursor<R> {
    fn new(run: Run, base: usize, stripe_len: usize) -> Self {
        Cursor {
            run,
            base,
            next_stripe: run.start,
            buf: vec![R::default(); stripe_len],
            filled: 0,
            pos: 0,
        }
    }

    fn exhausted(&self) -> bool {
        self.pos >= self.filled && self.next_stripe >= self.run.end
    }

    /// Refills the buffer (in place, no allocation) if empty; returns
    /// false when the run is done.
    fn ensure(&mut self, sys: &mut DiskSystem<R>) -> Result<bool, PdmError> {
        if self.pos < self.filled {
            return Ok(true);
        }
        if self.next_stripe >= self.run.end {
            return Ok(false);
        }
        sys.read_stripe_into(self.base + self.next_stripe, &mut self.buf)?;
        self.filled = self.buf.len();
        self.pos = 0;
        self.next_stripe += 1;
        Ok(true)
    }

    fn peek(&self) -> &R {
        &self.buf[self.pos]
    }

    fn pop(&mut self) -> R {
        let r = self.buf[self.pos];
        self.pos += 1;
        r
    }
}

/// Sorts the `N` records in portion 0 by `key`, ascending, with the
/// default (single-buffered, memory-model-faithful) merge. See
/// [`sort_by_key_with`].
pub fn sort_by_key<R: Record>(
    sys: &mut DiskSystem<R>,
    key: impl Fn(&R) -> u64 + Copy,
) -> Result<SortReport, PdmError> {
    sort_by_key_with(sys, key, SortConfig::default())
}

/// Sorts the `N` records in portion 0 by `key`, ascending. Requires a
/// disk system with at least two portions, and enough memory for a
/// fan-in of at least two runs plus the buffers the chosen
/// [`MergeStrategy`] needs.
pub fn sort_by_key_with<R: Record>(
    sys: &mut DiskSystem<R>,
    key: impl Fn(&R) -> u64 + Copy,
    cfg: SortConfig,
) -> Result<SortReport, PdmError> {
    let geom = sys.geometry();
    if sys.portions() < 2 {
        return Err(PdmError::Config(format!(
            "merge sort needs a disk system with at least two portions, got {}",
            sys.portions()
        )));
    }
    let fan_in = cfg.merge.fan_in(&geom);
    if fan_in < 2 {
        return Err(PdmError::Config(format!(
            "merge sort needs fan-in >= 2, got {fan_in} \
             (M/BD = {}, M/B = {}, strategy = {})",
            geom.stripes_per_memoryload(),
            geom.blocks_per_memoryload(),
            cfg.merge.as_str()
        )));
    }
    let before = sys.stats();
    let msgs_before = sys.message_stats();

    // --- Run formation: memoryload-sized sorted runs into portion 1,
    // streamed through the engine.
    let mut engine: PassEngine<R> = PassEngine::new(geom);
    engine.run_pass(
        sys,
        |ml, _gather| ReadPlan::Memoryload { portion: 0, ml },
        |ml, records, _scratch, _scatter| {
            records.sort_unstable_by_key(|r| key(r));
            WritePlan::Memoryload { portion: 1, ml }
        },
    )?;
    let spm = geom.stripes_per_memoryload();
    let mut runs: Vec<Run> = (0..geom.memoryloads())
        .map(|ml| Run {
            start: ml * spm,
            end: (ml + 1) * spm,
            portion: 1,
        })
        .collect();
    let mut passes = 1usize;

    // --- Merge passes. The target portion alternates per pass; every
    // *merged* group lands there, while a leftover singleton group
    // keeps its `Run::portion`. At most one run is ever off the common
    // source portion, and it is the globally last run, so within a
    // group at most the final run lives in the target portion — the
    // one arrangement where in-place output is safe (the output cursor
    // reaches a target-portion stripe only after every block of it has
    // been consumed, because all earlier-ranged runs together hold
    // exactly the records written before it).
    let stripe_len = geom.block() * geom.disks();
    let mut out: Vec<R> = Vec::with_capacity(stripe_len);
    let mut target = 0usize;
    while runs.len() > 1 {
        let mut next_runs: Vec<Run> = Vec::with_capacity(runs.len().div_ceil(fan_in));
        for group in runs.chunks(fan_in) {
            if group.len() == 1 {
                // Leftover singleton: already a sorted run — leave it
                // in place instead of paying 2·|run| parallel I/Os of
                // pure copy.
                next_runs.push(group[0]);
                continue;
            }
            match cfg.merge {
                MergeStrategy::SingleBuffered => merge_group(sys, target, group, key, &mut out)?,
                MergeStrategy::Forecast => merge_group_fc(sys, target, group, key, &mut out)?,
            }
            next_runs.push(Run {
                start: group[0].start,
                end: group.last().unwrap().end,
                portion: target,
            });
        }
        runs = next_runs;
        target = 1 - target;
        passes += 1;
    }

    Ok(SortReport {
        passes,
        fan_in,
        strategy: cfg.merge,
        total: sys.stats().since(&before),
        msgs: sys.message_stats().since(&msgs_before),
        final_portion: runs[0].portion,
    })
}

/// Merges a group of consecutive runs (each read from its own
/// [`Run::portion`]) into the same stripe range of portion `dst`.
/// `out` is the reusable one-stripe output buffer.
fn merge_group<R: Record>(
    sys: &mut DiskSystem<R>,
    dst: usize,
    group: &[Run],
    key: impl Fn(&R) -> u64 + Copy,
    out: &mut Vec<R>,
) -> Result<(), PdmError> {
    let geom = sys.geometry();
    let dst_base = sys.portion_base(dst);
    let stripe_len = geom.block() * geom.disks();

    let mut cursors: Vec<Cursor<R>> = group
        .iter()
        .map(|&run| Cursor::new(run, sys.portion_base(run.portion), stripe_len))
        .collect();
    // Heap of (key, cursor index); pull the global minimum, refilling
    // that cursor's stripe buffer on demand.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, c) in cursors.iter_mut().enumerate() {
        if c.ensure(sys)? {
            heap.push(Reverse((key(c.peek()), i)));
        }
    }
    out.clear();
    let mut out_stripe = group[0].start;
    while let Some(Reverse((_, i))) = heap.pop() {
        let rec = cursors[i].pop();
        out.push(rec);
        if out.len() == stripe_len {
            sys.write_stripe(dst_base + out_stripe, out)?;
            out_stripe += 1;
            out.clear();
        }
        if cursors[i].ensure(sys)? {
            heap.push(Reverse((key(cursors[i].peek()), i)));
        }
    }
    debug_assert!(out.is_empty(), "runs are stripe-aligned");
    debug_assert!(cursors.iter().all(Cursor::exhausted));
    Ok(())
}

/// One run being consumed by the forecasting merge: a single *block*
/// buffer plus the forecasting key (the key of the buffer's last
/// record — blocks within a run are sorted, so the run with the
/// smallest forecasting key is exactly the run whose buffer empties
/// next).
struct FcCursor<R> {
    run: Run,
    base: usize,
    /// Next block (0-based within the run) not yet landed or in
    /// flight. Block `k` of a run lives at stripe `start + k/D`,
    /// disk `k mod D`.
    next_block: usize,
    total_blocks: usize,
    buf: Vec<R>,
    filled: usize,
    pos: usize,
    /// Forecasting key (valid while `filled > 0`).
    fkey: u64,
}

impl<R: Record> FcCursor<R> {
    fn new(run: Run, base: usize, block: usize, disks: usize) -> Self {
        FcCursor {
            run,
            base,
            next_block: 0,
            total_blocks: (run.end - run.start) * disks,
            buf: vec![R::default(); block],
            filled: 0,
            pos: 0,
            fkey: 0,
        }
    }

    /// True while this cursor still has blocks that were neither
    /// landed nor submitted.
    fn has_unfetched(&self) -> bool {
        self.next_block < self.total_blocks
    }

    /// The [`BlockRef`] of the next unfetched block.
    fn next_ref(&self, disks: usize) -> BlockRef {
        BlockRef {
            disk: self.next_block % disks,
            slot: self.base + self.run.start + self.next_block / disks,
        }
    }

    fn peek(&self) -> &R {
        &self.buf[self.pos]
    }

    fn pop(&mut self) -> R {
        let r = self.buf[self.pos];
        self.pos += 1;
        r
    }

    /// Installs a freshly landed block and refreshes the forecasting
    /// key.
    fn install(&mut self, key: impl Fn(&R) -> u64) {
        self.filled = self.buf.len();
        self.pos = 0;
        self.fkey = key(&self.buf[self.filled - 1]);
    }
}

/// The in-flight forecast prefetch: which cursor it refills and its
/// split-phase ticket.
struct FcPending<R: Record> {
    cursor: usize,
    ticket: ReadTicket<R>,
}

/// Merges a group of consecutive runs with forecasting block-granular
/// cursors. Reads are independent single-block parallel I/Os (every
/// block of the group is read exactly once — `D` read operations per
/// stripe); writes remain striped. The one split-phase prefetch in
/// flight always belongs to the run that empties next, so in threaded
/// mode every refill is already resident when the heap demands it.
fn merge_group_fc<R: Record>(
    sys: &mut DiskSystem<R>,
    dst: usize,
    group: &[Run],
    key: impl Fn(&R) -> u64 + Copy,
    out: &mut Vec<R>,
) -> Result<(), PdmError> {
    let geom = sys.geometry();
    let block = geom.block();
    let disks = geom.disks();
    let mut cursors: Vec<FcCursor<R>> = group
        .iter()
        .map(|&run| FcCursor::new(run, sys.portion_base(run.portion), block, disks))
        .collect();
    let mut pending: Option<FcPending<R>> = None;
    let result = merge_group_fc_inner(sys, dst, group, &mut cursors, &mut pending, key, out);
    if result.is_err() {
        // Abort path: reclaim the in-flight prefetch so no pooled
        // buffers are stranded.
        if let Some(p) = pending.take() {
            sys.discard_read(p.ticket);
        }
    }
    result
}

/// Submits the next prefetch: the first unfetched block of the run
/// predicted to empty next (smallest `(fkey, index)` — ties broken
/// like the merge heap, so the prediction is exact even with
/// duplicate keys).
fn fc_issue_prefetch<R: Record>(
    sys: &mut DiskSystem<R>,
    cursors: &mut [FcCursor<R>],
    pending: &mut Option<FcPending<R>>,
) -> Result<(), PdmError> {
    debug_assert!(pending.is_none());
    let disks = sys.geometry().disks();
    let predicted = cursors
        .iter()
        .enumerate()
        .filter(|(_, c)| c.has_unfetched())
        .min_by_key(|(i, c)| (c.fkey, *i))
        .map(|(i, _)| i);
    if let Some(i) = predicted {
        let ticket = sys.begin_read_block(cursors[i].next_ref(disks))?;
        cursors[i].next_block += 1;
        *pending = Some(FcPending { cursor: i, ticket });
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn merge_group_fc_inner<R: Record>(
    sys: &mut DiskSystem<R>,
    dst: usize,
    group: &[Run],
    cursors: &mut [FcCursor<R>],
    pending: &mut Option<FcPending<R>>,
    key: impl Fn(&R) -> u64 + Copy,
    out: &mut Vec<R>,
) -> Result<(), PdmError> {
    let geom = sys.geometry();
    let dst_base = sys.portion_base(dst);
    let disks = geom.disks();
    let stripe_len = geom.block() * disks;
    // Shared landing buffer for the split-phase prefetch: the one
    // extra block of residency the strategy charges against M.
    let mut landing: Vec<R> = vec![R::default(); geom.block()];

    // Initial fill: every cursor's first block, demand-read (all runs
    // start at a stripe boundary, i.e. on disk 0, so these reads
    // cannot batch).
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, c) in cursors.iter_mut().enumerate() {
        debug_assert!(c.has_unfetched(), "runs are non-empty");
        sys.read_block_into(c.next_ref(disks), &mut c.buf)?;
        c.next_block += 1;
        c.install(key);
        heap.push(Reverse((key(c.peek()), i)));
    }
    fc_issue_prefetch(sys, cursors, pending)?;

    out.clear();
    let mut out_stripe = group[0].start;
    while let Some(Reverse((_, i))) = heap.pop() {
        let rec = cursors[i].pop();
        out.push(rec);
        if out.len() == stripe_len {
            sys.write_stripe(dst_base + out_stripe, out)?;
            out_stripe += 1;
            out.clear();
        }
        if cursors[i].pos < cursors[i].filled {
            heap.push(Reverse((key(cursors[i].peek()), i)));
            continue;
        }
        // Cursor i drained its block. If it has more, the forecast
        // guarantees the in-flight prefetch is exactly its next block.
        match pending.take() {
            Some(p) if p.cursor == i => {
                sys.finish_read(p.ticket, &mut landing)?;
                std::mem::swap(&mut cursors[i].buf, &mut landing);
                cursors[i].install(key);
                heap.push(Reverse((key(cursors[i].peek()), i)));
                fc_issue_prefetch(sys, cursors, pending)?;
            }
            other => {
                *pending = other;
                // The run is exhausted: the prediction is exact, so a
                // drained cursor that is not the prefetch target has
                // no blocks left. Guarded by a demand read rather than
                // trusting the invariant: if a future edit ever breaks
                // the exactness argument, the merge must fail loudly
                // under debug and stay correct (every block still read
                // exactly once) in release — not silently truncate the
                // group.
                if cursors[i].has_unfetched() {
                    debug_assert!(false, "forecast mispredicted the next empty run");
                    let r = cursors[i].next_ref(disks);
                    sys.read_block_into(r, &mut cursors[i].buf)?;
                    cursors[i].next_block += 1;
                    cursors[i].install(key);
                    heap.push(Reverse((key(cursors[i].peek()), i)));
                }
            }
        }
    }
    debug_assert!(out.is_empty(), "runs are stripe-aligned");
    debug_assert!(pending.is_none(), "prefetch outlived the merge");
    debug_assert!(cursors
        .iter()
        .all(|c| c.pos >= c.filled && !c.has_unfetched()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::{FaultPlan, Geometry, ServiceMode};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn geom() -> Geometry {
        // N=2^10, B=2^2, D=2^2, M=2^6: M/BD = 4 stripes, fan-in 3.
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap()
    }

    fn cfg(merge: MergeStrategy) -> SortConfig {
        SortConfig { merge }
    }

    #[test]
    fn sorts_shuffled_records() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(101);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &records);
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        let out = sys.dump_records(report.final_portion);
        let expect: Vec<u64> = (0..g.records() as u64).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn sorts_identically_threaded() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(103);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        let run = |mode: ServiceMode| {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode);
            sys.load_records(0, &records);
            let report = sort_by_key(&mut sys, |&r| r).unwrap();
            (report.total, sys.dump_records(report.final_portion))
        };
        let (serial_total, serial_out) = run(ServiceMode::Serial);
        let (threaded_total, threaded_out) = run(ServiceMode::Threaded);
        assert_eq!(serial_out, threaded_out);
        assert_eq!(serial_total, threaded_total);
    }

    #[test]
    fn pass_count_matches_formula() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let mut records: Vec<u64> = (0..g.records() as u64).rev().collect();
        records.rotate_left(7);
        sys.load_records(0, &records);
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        // N/M = 16 runs, fan-in 3: 16 → 6 → 2 → 1 = 3 merge passes.
        assert_eq!(report.fan_in, 3);
        assert_eq!(report.strategy, MergeStrategy::SingleBuffered);
        assert_eq!(report.passes, 4);
        // Every merged stripe costs one striped read + one striped
        // write, but the leftover singleton of merge pass 1 (16 runs =
        // 5 groups of 3 + one of 1) stays in place: 4·128 minus the
        // 2·4 parallel I/Os the old wholesale copy used to charge.
        assert_eq!(
            report.total.parallel_ios() as usize,
            report.passes * g.ios_per_pass() - 2 * g.stripes_per_memoryload()
        );
        assert_eq!(report.total.striped_reads, report.total.parallel_reads);
        assert_eq!(report.total.striped_writes, report.total.parallel_writes);
    }

    #[test]
    fn already_sorted_input() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        let out = sys.dump_records(report.final_portion);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sorts_with_duplicate_keys() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let records: Vec<u64> = (0..g.records() as u64).map(|i| i % 17).collect();
        sys.load_records(0, &records);
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        let out = sys.dump_records(report.final_portion);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        // Same multiset.
        let mut a = out.clone();
        let mut b = records.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_tiny_memory() {
        // M = BD: zero fan-in for every strategy.
        let g = Geometry::new(1 << 8, 1 << 2, 1 << 2, 1 << 4).unwrap();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..256u64).collect::<Vec<_>>());
        for strategy in MergeStrategy::ALL {
            assert!(matches!(
                sort_by_key_with(&mut sys, |&r| r, cfg(strategy)),
                Err(PdmError::Config(_))
            ));
        }
    }

    #[test]
    fn single_portion_system_is_a_typed_error() {
        // Regression test: a 1-portion system used to hit an assert!
        // and panic; it must return the same typed error as the fan-in
        // check.
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 1);
        sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
        let err = sort_by_key(&mut sys, |&r| r).unwrap_err();
        assert!(matches!(err, PdmError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("two portions"), "{err}");
    }

    #[test]
    fn single_disk_sort() {
        let g = Geometry::new(1 << 9, 1 << 2, 1, 1 << 5).unwrap();
        let mut rng = StdRng::seed_from_u64(102);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &records);
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        let out = sys.dump_records(report.final_portion);
        assert_eq!(out, (0..g.records() as u64).collect::<Vec<u64>>());
    }

    /// Geometry with M/BD = 8 stripes in memory: single-buffered
    /// fan-in 7, forecast fan-in M/B − D − 1 = 16 − 3 = 13.
    fn wide_geom() -> Geometry {
        Geometry::new(1 << 10, 1 << 1, 1 << 1, 1 << 5).unwrap()
    }

    #[test]
    fn all_strategies_sort_identically() {
        let g = wide_geom();
        let mut rng = StdRng::seed_from_u64(104);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        let run = |cfg: SortConfig, mode: ServiceMode| {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode);
            sys.load_records(0, &records);
            let report = sort_by_key_with(&mut sys, |&r| r, cfg).unwrap();
            assert_eq!(
                sys.buffer_pool_stats().outstanding,
                0,
                "merge stranded pooled buffers"
            );
            (report, sys.dump_records(report.final_portion))
        };
        let expect: Vec<u64> = (0..g.records() as u64).collect();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let (sr, sout) = run(cfg(MergeStrategy::SingleBuffered), mode);
            let (fr, fout) = run(cfg(MergeStrategy::Forecast), mode);
            assert_eq!(sout, expect, "single-buffered missorted in {mode:?}");
            assert_eq!(fout, expect, "forecast missorted in {mode:?}");
            // 32 runs of 8 stripes each; N/BD = 256 stripes total.
            // Single (fan-in 7): 32 → 5 → 1, no singletons, 3 passes of
            // exactly 2·256 parallel I/Os.
            assert_eq!(sr.fan_in, 7);
            assert_eq!(sr.passes, 3);
            assert_eq!(sr.total.parallel_ios(), 3 * 512);
            // Forecast (fan-in 13): 32 → 3 → 1 — this geometry is too
            // small for the fan-in gain to drop a pass (strictly fewer
            // passes needs >F₁ runs; see tests/merge_strategies.rs) —
            // and merge reads are per-block (D per stripe):
            // formation 512 + 2·(2·256 + 256) = 2048.
            assert_eq!(fr.fan_in, 13);
            assert_eq!(fr.passes, 3);
            assert!(fr.passes <= sr.passes);
            assert_eq!(fr.total.parallel_ios(), 512 + 2 * (2 * 256 + 256));
            assert_eq!(sr.total.striped_reads, sr.total.parallel_reads);
            assert_eq!(sr.total.striped_writes, sr.total.parallel_writes);
            // Forecast: writes stay striped, merge reads are
            // independent single-block operations (formation reads are
            // striped).
            assert_eq!(fr.total.striped_writes, fr.total.parallel_writes);
            assert_eq!(fr.total.striped_reads, 256);
            assert_eq!(fr.total.independent_reads(), 2 * 512);
            assert_eq!(fr.total.blocks_read, 256 * 2 + 2 * 512);
        }
    }

    #[test]
    fn forecast_merge_sorts_with_duplicate_keys() {
        // Duplicate keys stress the forecast tie-break: the prediction
        // orders runs by (fkey, index) exactly like the merge heap.
        let g = wide_geom();
        let mut rng = StdRng::seed_from_u64(105);
        let mut records: Vec<u64> = (0..g.records() as u64).map(|i| i % 5).collect();
        records.shuffle(&mut rng);
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode);
            sys.load_records(0, &records);
            let report = sort_by_key_with(&mut sys, |&r| r, cfg(MergeStrategy::Forecast)).unwrap();
            let out = sys.dump_records(report.final_portion);
            assert!(out.windows(2).all(|w| w[0] <= w[1]), "missorted {mode:?}");
            let mut a = out;
            let mut b = records.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "multiset changed in {mode:?}");
        }
    }

    #[test]
    fn forecast_single_disk_sort() {
        // D=1: every "single-block" read is also a full stripe, and
        // the forecast fan-in is M/B − 2 = 6.
        let g = Geometry::new(1 << 9, 1 << 2, 1, 1 << 5).unwrap();
        assert_eq!(MergeStrategy::Forecast.fan_in(&g), 6);
        let mut rng = StdRng::seed_from_u64(106);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &records);
        let report = sort_by_key_with(&mut sys, |&r| r, cfg(MergeStrategy::Forecast)).unwrap();
        let out = sys.dump_records(report.final_portion);
        assert_eq!(out, (0..g.records() as u64).collect::<Vec<u64>>());
    }

    #[test]
    fn forecast_abort_reclaims_prefetch_buffers() {
        // A fault mid-merge must surface as an error (not a panic) and
        // leave zero pooled buffers outstanding — the in-flight
        // forecast prefetch is discarded on the abort path.
        let g = wide_geom();
        let mut rng = StdRng::seed_from_u64(107);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            // Fault a handful of operation indices inside the merge
            // phase (run formation is 512 ops).
            for op in [600u64, 700, 1000] {
                let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
                sys.set_service_mode(mode);
                sys.load_records(0, &records);
                // Fault every disk at this op: a forecast refill is a
                // single-block read touching just one (data-dependent)
                // disk.
                let mut plan = FaultPlan::new();
                for disk in 0..g.disks() {
                    plan = plan.fail_at(op, disk);
                }
                sys.set_faults(plan);
                let err = sort_by_key_with(&mut sys, |&r| r, cfg(MergeStrategy::Forecast))
                    .expect_err("fault must abort the sort");
                assert!(matches!(err, PdmError::Fault { .. }), "got {err:?}");
                assert_eq!(
                    sys.buffer_pool_stats().outstanding,
                    0,
                    "abort stranded pooled buffers (mode {mode:?}, op {op})"
                );
            }
        }
    }

    #[test]
    fn merge_strategy_labels_round_trip() {
        for s in MergeStrategy::ALL {
            assert_eq!(s.as_str().parse::<MergeStrategy>().unwrap(), s);
        }
        let err = "double".parse::<MergeStrategy>().unwrap_err();
        assert!(err.contains("single | forecast"), "{err}");
    }

    #[test]
    fn descending_key_sort() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
        let max = g.records() as u64 - 1;
        let report = sort_by_key(&mut sys, move |&r| max - r).unwrap();
        let out = sys.dump_records(report.final_portion);
        let expect: Vec<u64> = (0..g.records() as u64).rev().collect();
        assert_eq!(out, expect);
    }

    fn g(n_exp: u32, b_exp: u32, d_exp: u32, m_exp: u32) -> Geometry {
        Geometry::new(1 << n_exp, 1 << b_exp, 1 << d_exp, 1 << m_exp).unwrap()
    }

    #[test]
    fn merge_sort_ios_formula() {
        // N=2^10, B=2^2, D=2^2, M=2^6: fan-in 3, 16 runs → 4 passes,
        // and merge pass 1 (16 = 5·3 + 1) leaves a 4-stripe singleton
        // in place: 4·128 − 2·4.
        let geom = geom();
        let single = MergeStrategy::SingleBuffered;
        assert_eq!(merge_sort_ios(&geom, single), Some(4 * 128 - 8));
        assert_eq!(merge_sort_passes(&geom, single), Some(4));
        // M = BD: no strategy can merge.
        for s in MergeStrategy::ALL {
            assert_eq!(merge_sort_ios(&g(8, 2, 2, 4), s), None, "{s:?}");
        }
    }

    #[test]
    fn merge_strategy_fan_ins_at_bench_geometry() {
        // The engine_sweep extsort geometry: B=2^3, D=2^4, M=2^12.
        let geom = g(18, 3, 4, 12);
        let single = MergeStrategy::SingleBuffered.fan_in(&geom);
        let forecast = MergeStrategy::Forecast.fan_in(&geom);
        assert_eq!(single, 31); // M/BD − 1
        assert_eq!(forecast, 495); // M/B − D − 1
        assert!(
            forecast >= 8 * single,
            "forecasting must close the D× fan-in gap: {forecast} vs {single}"
        );
    }

    #[test]
    fn forecast_passes_strictly_fewer_when_single_needs_two_merges() {
        // Same B, D, M at N=2^17: 32 runs. Single-buffered (fan-in 31)
        // needs two merge passes (32 → 2 → 1, with a singleton left in
        // place in pass 1); forecasting (fan-in 495) merges all 32 at
        // once.
        let geom = g(17, 3, 4, 12);
        let (single, forecast) = (MergeStrategy::SingleBuffered, MergeStrategy::Forecast);
        assert_eq!(merge_sort_passes(&geom, single), Some(3));
        assert_eq!(merge_sort_passes(&geom, forecast), Some(2));
        // Exact I/Os: single = 2048 + (992·2) + 2048; forecast =
        // 2048 + 1024·(D+1) — fewer passes, but block-granular reads.
        assert_eq!(merge_sort_ios(&geom, single), Some(6080));
        assert_eq!(merge_sort_ios(&geom, forecast), Some(19456));
    }

    #[test]
    fn forecast_passes_never_exceed_single_buffered() {
        for (n, b, d, m) in [
            (10, 2, 2, 6),
            (12, 3, 2, 8),
            (14, 4, 3, 9),
            (17, 3, 4, 12),
            (20, 3, 0, 13),
        ] {
            let geom = g(n, b, d, m);
            let (Some(fc), Some(sb)) = (
                merge_sort_passes(&geom, MergeStrategy::Forecast),
                merge_sort_passes(&geom, MergeStrategy::SingleBuffered),
            ) else {
                panic!("both strategies must fit N=2^{n}");
            };
            assert!(fc <= sb, "forecast {fc} passes vs single {sb} at N=2^{n}");
        }
    }
}
