//! External merge sort on the parallel disk model: one pipelined merge
//! loop for both merge strategies (see DESIGN.md for the full cost
//! table), and the exact replay of its merge schedule
//! ([`merge_sort_levels`]) that the planner costs the sort route with.
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
//! A strategy fixes the merge's *refill unit* `u`, the records one
//! refill read brings in, and with it the fan-in and the read
//! discipline:
//!
//! * [`MergeStrategy::SingleBuffered`] (the default): `u` is one stripe
//!   (`B·D` records). A full group of `F₁ = M/BD − 1` runs holds one
//!   stripe per run plus the output stripe, `(F+1)·BD = M` records.
//!   Every transfer is a striped parallel I/O; a full merge pass costs
//!   exactly `2N/BD`.
//! * [`MergeStrategy::Forecast`]: the Vitter–Shriver forecasting merge
//!   at *block* granularity: `u` is one block (`B` records). A full
//!   group of `F₂ = M/B − D − 1 = Θ(M/B)` runs holds its run blocks, one
//!   landing block and the output stripe — a factor ~`D` more fan-in
//!   than `F₁`, hence strictly fewer merge passes whenever the
//!   single-buffered sort needs more than one. The price is the read
//!   discipline: refills are independent single-block parallel I/Os
//!   (`D` read operations per stripe instead of one striped read), so
//!   a forecast merge pass charges `(D+1)·N/BD` parallel I/Os against
//!   the single-buffered `2N/BD`. Fewer passes, or cheaper passes:
//!   [`merge_sort_ios`] computes both sides exactly and the
//!   `engine_sweep` extsort section measures them.
//!
//! # The merge loop
//!
//! A group of `g` runs keeps one unit per run, and a heap keyed on
//! `(key, run index)`, whose top is replaced rather than popped and
//! pushed, picks each output record; equal keys therefore leave in run
//! order under either strategy. The `S = M − g·u − BD` records the
//! group leaves free become `L` *landing units* for prefetched refills
//! plus, when `S ≥ BD + u`, one output stripe written behind
//! (`group_budget`). Blocks within a run are sorted, so each run's
//! *forecasting key* — the key of the last record of its newest
//! resident or landed unit — orders exactly when it next needs a unit.
//! Prefetches go out in that order and in batches: once `⌈L/4⌉`
//! landing units are free, one split-phase ticket of single-unit
//! parallel I/Os ([`pdm::DiskSystem::begin_reads`]), admitted and
//! charged one by one, so each disk's refills travel as one run. A
//! drained run whose next unit is neither landed nor in flight takes a
//! demand read.
//!
//! A full group runs the classic merge: `S = B` gives a forecast group
//! one prefetch in flight while the heap drains and synchronous
//! writes, and `S = 0` gives a single-buffered group demand stripe
//! reads. In every regime each unit is read exactly once, in run order,
//! each output stripe is one striped write, and the counts are those
//! [`merge_sort_ios`] replays; only the timing of the transfers moves.
//! (Groups with spare memory issue their reads earlier, so fault-plan
//! operation indices inside them differ from the classic order, as the
//! pass engine's overlap does.)

use pdm::engine::{ReadPlan, WritePlan};
use pdm::{
    BlockRef, DiskSystem, Geometry, IoStats, MsgStats, PassEngine, PdmError, ReadTicket, Record,
    WriteTicket,
};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// How the merge passes buffer their runs. See the module docs for the
/// cost trade-offs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergeStrategy {
    /// One stripe buffer per run, striped I/O only, fan-in
    /// `M/BD − 1`. The memory-model-faithful default.
    #[default]
    SingleBuffered,
    /// One *block* buffer per run plus a forecasting key ordering the
    /// split-phase block prefetches, fan-in `M/B − D − 1`.
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

    /// Records per refill unit: one stripe (single-buffered) or one
    /// block (forecasting).
    fn unit(&self, geom: &Geometry) -> usize {
        match self {
            MergeStrategy::SingleBuffered => geom.block() * geom.disks(),
            MergeStrategy::Forecast => geom.block(),
        }
    }

    /// Parallel *read* operations charged per merged stripe, one per
    /// refill unit: a striped read (single-buffered) or `D` single-block
    /// reads (forecasting).
    fn reads_per_stripe(&self, geom: &Geometry) -> u64 {
        (geom.block() * geom.disks() / self.unit(geom)) as u64
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

/// The buffering of a merge group of `runs` runs under `strategy`:
/// `(L, write_behind)`, its landing units for prefetched refills and
/// whether one output stripe is written behind. With one unit per run
/// and the output stripe being filled they use the `S = M − g·u − BD`
/// records the group leaves free and no more: write behind iff
/// `S ≥ BD + u`, then `L = (S − [write_behind]·BD) / u`. A full group
/// leaves `S = B` when forecasting (`L = 1`) and `S = 0`
/// single-buffered (`L = 0`).
pub(crate) fn group_budget(geom: &Geometry, strategy: MergeStrategy, runs: usize) -> (usize, bool) {
    debug_assert!((2..=strategy.fan_in(geom)).contains(&runs));
    let (unit, stripe) = (strategy.unit(geom), geom.block() * geom.disks());
    let spare = geom.memory() - runs * unit - stripe;
    let write_behind = spare >= stripe + unit;
    let landing = (spare - usize::from(write_behind) * stripe) / unit;
    (landing, write_behind)
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
            merge_runs(sys, cfg.merge, target, group, key, &mut out)?;
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
/// [`Run::portion`]) into the same stripe range of portion `dst` with
/// the merge loop of the module docs. `out` is the reusable output
/// stripe. On error nothing stays in flight.
fn merge_runs<R: Record>(
    sys: &mut DiskSystem<R>,
    strategy: MergeStrategy,
    dst: usize,
    group: &[Run],
    key: impl Fn(&R) -> u64 + Copy,
    out: &mut Vec<R>,
) -> Result<(), PdmError> {
    let mut merge = Merge::new(sys, strategy, group);
    let dst = sys.portion_base(dst) + group[0].start;
    let result = merge.run(sys, dst, key, out);
    if result.is_err() {
        merge.abort(sys);
    }
    result
}

/// A run being merged: the unit it is consuming, the units landed
/// ahead of it, and its forecasting key.
struct Input<R> {
    /// The run's first slot: its portion base plus its first stripe.
    slot: usize,
    /// Units in the run.
    units: usize,
    /// Units fetched so far (resident, landed, in flight or consumed):
    /// the next to fetch is unit `fetched`.
    fetched: usize,
    /// The unit being consumed, and its next record (`buf.len()` once
    /// drained).
    buf: Vec<R>,
    pos: usize,
    /// Landed units, in run order.
    landed: VecDeque<Vec<R>>,
    /// Whether unit `fetched − 1` is in flight.
    in_flight: bool,
    /// The key of the last record of the newest unit resident or
    /// landed: the run needs unit `fetched` once the merge has passed
    /// `(fkey, run index)`. Stale while a unit is in flight.
    fkey: u64,
}

/// A prefetch batch in flight: its ticket and, per unit in operation
/// order, the input it refills and the landing unit it reserved.
struct Batch<R: Record> {
    ticket: ReadTicket<R>,
    units: Vec<(usize, Vec<R>)>,
}

/// One merge group's buffers and transfers in flight.
struct Merge<R: Record> {
    geom: Geometry,
    /// Records per refill unit.
    unit: usize,
    inputs: Vec<Input<R>>,
    /// Landing units neither in flight nor holding a landed unit.
    free: Vec<Vec<R>>,
    /// The landing units `L`, and the free ones at which a batch goes
    /// out, `⌈L/4⌉`.
    landing: usize,
    batch: usize,
    /// Prefetch batches in flight, oldest first.
    batches: VecDeque<Batch<R>>,
    /// Runs with units left to fetch and none in flight: the candidates
    /// of the next batch.
    eligible: usize,
    /// Whether output stripes are written behind, and the one in flight
    /// with its slot.
    write_behind: bool,
    writing: Option<(usize, WriteTicket<R>)>,
    /// Reused scratch: forecast candidates `(fkey, input)`, and one
    /// operation's references.
    picks: Vec<(u64, usize)>,
    refs: Vec<BlockRef>,
}

/// Fills `refs` with the blocks of unit `k` (of `unit` records) of the
/// run whose first slot is `slot`: block `j` of a run lives at its
/// stripe `j / D`, disk `j mod D`. A stripe-sized unit 0 is the stripe
/// at `slot`.
fn unit_refs(geom: &Geometry, unit: usize, slot: usize, k: usize, refs: &mut Vec<BlockRef>) {
    let (disks, blocks) = (geom.disks(), unit / geom.block());
    refs.clear();
    refs.extend((k * blocks..(k + 1) * blocks).map(|j| BlockRef {
        disk: j % disks,
        slot: slot + j / disks,
    }));
}

impl<R: Record> Merge<R> {
    fn new(sys: &DiskSystem<R>, strategy: MergeStrategy, group: &[Run]) -> Self {
        let geom = sys.geometry();
        let unit = strategy.unit(&geom);
        let (landing, write_behind) = group_budget(&geom, strategy, group.len());
        let units_per_stripe = strategy.reads_per_stripe(&geom) as usize;
        let inputs = group
            .iter()
            .map(|run| Input {
                slot: sys.portion_base(run.portion) + run.start,
                units: (run.end - run.start) * units_per_stripe,
                fetched: 0,
                buf: vec![R::default(); unit],
                pos: 0,
                landed: VecDeque::new(),
                in_flight: false,
                fkey: 0,
            })
            .collect();
        Merge {
            geom,
            unit,
            inputs,
            free: (0..landing).map(|_| vec![R::default(); unit]).collect(),
            landing,
            batch: landing.div_ceil(4).max(1),
            batches: VecDeque::new(),
            eligible: 0,
            write_behind,
            writing: None,
            picks: Vec::with_capacity(group.len()),
            refs: Vec::with_capacity(geom.disks()),
        }
    }

    /// Merges the group into the stripes from slot `dst` on.
    fn run(
        &mut self,
        sys: &mut DiskSystem<R>,
        mut dst: usize,
        key: impl Fn(&R) -> u64 + Copy,
        out: &mut Vec<R>,
    ) -> Result<(), PdmError> {
        let stripe_len = self.geom.block() * self.geom.disks();
        self.fill(sys, key)?;
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (self.inputs.iter().enumerate())
            .map(|(i, c)| Reverse((key(&c.buf[0]), i)))
            .collect();
        self.prefetch(sys, key)?;
        out.clear();
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((_, i)) = *top;
            let input = &mut self.inputs[i];
            out.push(input.buf[input.pos]);
            input.pos += 1;
            if out.len() == stripe_len {
                self.write(sys, dst, out)?;
                dst += 1;
                out.clear();
            }
            if self.inputs[i].pos == self.unit {
                if !self.refill(sys, i, key)? {
                    PeekMut::pop(top);
                    continue;
                }
                self.prefetch(sys, key)?;
            }
            let input = &self.inputs[i];
            *top = Reverse((key(&input.buf[input.pos]), i));
        }
        debug_assert!(out.is_empty(), "runs are stripe-aligned");
        if let Some((_, w)) = self.writing.take() {
            sys.finish_write(w)?;
        }
        debug_assert!(self.batches.is_empty(), "a prefetch outlived the merge");
        debug_assert!((self.inputs.iter()).all(|c| c.fetched == c.units && c.landed.is_empty()));
        Ok(())
    }

    /// Reads unit 0 of every run into the runs' own buffers, as one
    /// ticket in run order.
    fn fill(&mut self, sys: &mut DiskSystem<R>, key: impl Fn(&R) -> u64) -> Result<(), PdmError> {
        let (geom, unit) = (self.geom, self.unit);
        let mut first = self.inputs.iter();
        let ticket = sys.begin_reads(|refs| {
            let Some(c) = first.next() else {
                return false;
            };
            unit_refs(&geom, unit, c.slot, 0, refs);
            true
        })?;
        let (block, inputs) = (geom.block(), &mut self.inputs);
        sys.finish_read_with(ticket, |idx, data| {
            let off = idx * block % unit;
            inputs[idx * block / unit].buf[off..off + block].copy_from_slice(data);
        })?;
        for c in &mut self.inputs {
            c.fetched = 1;
            c.fkey = key(&c.buf[unit - 1]);
        }
        self.eligible = self.inputs.iter().filter(|c| c.units > 1).count();
        Ok(())
    }

    /// Makes the next unit of drained input `i` resident: its oldest
    /// landed unit, landing the batches up to the one carrying it if
    /// needed, or else a demand read into its own buffer. Returns
    /// `false` once the run is exhausted.
    fn refill(
        &mut self,
        sys: &mut DiskSystem<R>,
        i: usize,
        key: impl Fn(&R) -> u64 + Copy,
    ) -> Result<bool, PdmError> {
        while self.inputs[i].landed.is_empty() && self.inputs[i].in_flight {
            self.land_oldest(sys, key)?;
        }
        let c = &mut self.inputs[i];
        if let Some(next) = c.landed.pop_front() {
            self.free.push(std::mem::replace(&mut c.buf, next));
        } else if c.fetched < c.units {
            unit_refs(&self.geom, self.unit, c.slot, c.fetched, &mut self.refs);
            check_hazard(&self.writing, &self.refs);
            sys.read_blocks_into(&self.refs, &mut c.buf)?;
            c.fetched += 1;
            c.fkey = key(&c.buf[self.unit - 1]);
            self.eligible -= usize::from(c.fetched == c.units);
        } else {
            return Ok(false);
        }
        c.pos = 0;
        Ok(true)
    }

    /// Sends a batch once `⌈L/4⌉` landing units are free: the next units
    /// of the runs with none in flight, in forecast order (smallest
    /// `(fkey, run index)` first), one per free landing unit. Then,
    /// while more than `L/2` units are in flight in more than one
    /// batch, lands the oldest batch so its runs can be forecast again.
    /// A lone batch waits for the run that needs it: at `L = 1` that is
    /// the classic single prefetch, in flight while the heap drains.
    fn prefetch(
        &mut self,
        sys: &mut DiskSystem<R>,
        key: impl Fn(&R) -> u64 + Copy,
    ) -> Result<(), PdmError> {
        if self.free.len() < self.batch || self.eligible == 0 {
            return Ok(());
        }
        self.picks.clear();
        self.picks.extend(
            (self.inputs.iter().enumerate())
                .filter(|(_, c)| !c.in_flight && c.fetched < c.units)
                .map(|(i, c)| (c.fkey, i)),
        );
        debug_assert_eq!(self.picks.len(), self.eligible);
        let n = self.eligible.min(self.free.len());
        if n < self.picks.len() {
            self.picks.select_nth_unstable(n - 1);
            self.picks.truncate(n);
        }
        self.picks.sort_unstable();
        let mut units = Vec::with_capacity(n);
        for &(_, i) in &self.picks {
            let c = &mut self.inputs[i];
            units.push((i, self.free.pop().expect("a free landing unit")));
            c.in_flight = true;
            c.fetched += 1;
        }
        let (geom, unit, inputs, writing) = (self.geom, self.unit, &self.inputs, &self.writing);
        let mut picks = self.picks.iter();
        let ticket = sys.begin_reads(|refs| {
            let Some(&(_, i)) = picks.next() else {
                return false;
            };
            unit_refs(&geom, unit, inputs[i].slot, inputs[i].fetched - 1, refs);
            check_hazard(writing, refs);
            true
        })?;
        self.eligible -= n;
        self.batches.push_back(Batch { ticket, units });
        let in_flight = |m: &Self| m.batches.iter().map(|b| b.units.len()).sum::<usize>();
        while self.batches.len() > 1 && in_flight(self) > self.landing / 2 {
            self.land_oldest(sys, key)?;
        }
        Ok(())
    }

    /// Waits for the oldest batch and queues each unit behind its run.
    fn land_oldest(
        &mut self,
        sys: &mut DiskSystem<R>,
        key: impl Fn(&R) -> u64,
    ) -> Result<(), PdmError> {
        let Batch { ticket, mut units } = self.batches.pop_front().expect("a batch in flight");
        let (block, unit) = (self.geom.block(), self.unit);
        sys.finish_read_with(ticket, |idx, data| {
            let off = idx * block % unit;
            units[idx * block / unit].1[off..off + block].copy_from_slice(data);
        })?;
        for (i, buf) in units {
            let c = &mut self.inputs[i];
            c.fkey = key(&buf[unit - 1]);
            c.in_flight = false;
            c.landed.push_back(buf);
            self.eligible += usize::from(c.fetched < c.units);
        }
        Ok(())
    }

    /// Writes the full output stripe `out` to slot `dst`: at once, or
    /// behind the merge, after finishing the stripe written before it.
    fn write(&mut self, sys: &mut DiskSystem<R>, dst: usize, out: &[R]) -> Result<(), PdmError> {
        if !self.write_behind {
            return sys.write_stripe(dst, out);
        }
        if let Some((_, w)) = self.writing.take() {
            sys.finish_write(w)?;
        }
        unit_refs(&self.geom, out.len(), dst, 0, &mut self.refs);
        self.writing = Some((dst, sys.begin_write(&self.refs, out)?));
        Ok(())
    }

    /// The abort path: waits out and discards every batch in flight and
    /// finishes the stripe written behind, so no pooled buffer is
    /// stranded.
    fn abort(&mut self, sys: &mut DiskSystem<R>) {
        for b in self.batches.drain(..) {
            sys.discard_read(b.ticket);
        }
        if let Some((_, w)) = self.writing.take() {
            // Masked by the error that aborted the merge.
            let _ = sys.finish_write(w);
        }
    }
}

/// The in-place hazard, checked in debug builds: a merge read must not
/// target the stripe whose write is in flight. Only a leftover
/// singleton run can sit in the portion being written, and the output
/// reaches one of its stripes only after every block of that stripe
/// was consumed (DESIGN.md, "Exact schedule"), so reads stay ahead.
fn check_hazard<R: Record>(writing: &Option<(usize, WriteTicket<R>)>, refs: &[BlockRef]) {
    if let Some((slot, _)) = writing {
        debug_assert!(
            refs.iter().all(|r| r.slot != *slot),
            "merge read of slot {slot} while its written-behind stripe is in flight"
        );
    }
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

    /// Group sizes of every merged group of the sort's schedule (the
    /// `chunks(F)` grouping of [`merge_sort_levels`], singletons left
    /// out).
    fn merged_group_sizes(geom: &Geometry, strategy: MergeStrategy) -> Vec<usize> {
        let fan_in = strategy.fan_in(geom);
        let (mut runs, mut sizes) = (geom.memoryloads(), Vec::new());
        while runs > 1 {
            sizes.extend(std::iter::repeat_n(fan_in, runs / fan_in));
            if runs % fan_in >= 2 {
                sizes.push(runs % fan_in);
            }
            runs = runs.div_ceil(fan_in);
        }
        sizes
    }

    #[test]
    fn group_budgets_fit_in_memory_and_cover_every_regime() {
        // Every group size either strategy can merge fits its run
        // units, its landing units, the output stripe and the stripe
        // written behind in M, at D = 4, D = 1 and the bench geometry.
        for geom in [geom(), g(9, 2, 0, 5), g(18, 3, 4, 12)] {
            let stripe = geom.block() * geom.disks();
            for strategy in MergeStrategy::ALL {
                let unit = strategy.unit(&geom);
                let fan_in = strategy.fan_in(&geom);
                for runs in 2..=fan_in {
                    let (landing, behind) = group_budget(&geom, strategy, runs);
                    let resident = (runs + landing) * unit + stripe * (1 + usize::from(behind));
                    assert!(
                        resident <= geom.memory(),
                        "{strategy:?} g={runs} on {geom:?}"
                    );
                    // Whatever is left could not hold one more landing unit.
                    assert!(geom.memory() - resident < unit);
                }
                // A full group is the classic merge: one prefetch
                // (forecast) or demand reads (single), written at once.
                let classic = usize::from(strategy == MergeStrategy::Forecast);
                assert_eq!(group_budget(&geom, strategy, fan_in), (classic, false));
            }
        }
        // The benchmark's groups: perfbench sort-threaded (M/B = 128,
        // D = 4, g = 64), its served sort jobs (M/B = 32, D = 4,
        // g = 16), and engine_sweep's forecast rows (M/B = 512, D = 16,
        // g = 64).
        let forecast = MergeStrategy::Forecast;
        assert_eq!(group_budget(&g(20, 7, 2, 14), forecast, 64), (56, true));
        assert_eq!(group_budget(&g(16, 7, 2, 12), forecast, 16), (8, true));
        assert_eq!(group_budget(&g(18, 3, 4, 12), forecast, 64), (416, true));

        // The proptest geometries of tests/merge_strategies.rs reach all
        // three regimes: no spare memory, landing units only, and
        // landing units plus a stripe written behind.
        let (mut none, mut landing_only, mut behind) = (false, false, false);
        for geom in [
            g(10, 2, 2, 6),
            g(9, 2, 0, 4),
            g(12, 3, 2, 8),
            g(12, 0, 2, 6),
            g(11, 1, 3, 7),
        ] {
            for strategy in MergeStrategy::ALL {
                for runs in merged_group_sizes(&geom, strategy) {
                    match group_budget(&geom, strategy, runs) {
                        (0, false) => none = true,
                        (_, false) => landing_only = true,
                        (_, true) => behind = true,
                    }
                }
            }
        }
        assert!(
            none && landing_only && behind,
            "{none} {landing_only} {behind}"
        );
    }

    #[test]
    fn a_singleton_left_in_the_target_portion_merges_behind_safely() {
        // Threaded sorts whose last merge group holds a leftover
        // singleton run living in the portion being written, while
        // that group writes behind; debug builds check that no read
        // targets the stripe in flight.
        let single = MergeStrategy::SingleBuffered;
        let forecast = MergeStrategy::Forecast;
        // Single-buffered, fan-in 7: 8 runs leave run 8 in place, then
        // 2 runs merge with 5 spare stripes (4 landing + 1 behind).
        let small = g(8, 1, 1, 5);
        // Forecast, fan-in 13: 512 → 40 → 4 runs, pass 2 leaves a
        // singleton, then 4 runs merge with 10 spare blocks.
        let deep = g(14, 1, 1, 5);
        for (geom, strategy, runs, budget) in [
            (small, single, 2, (4, true)),
            (deep, forecast, 4, (8, true)),
        ] {
            let levels = merge_sort_levels(&geom, strategy).unwrap();
            let last = levels.len() - 1;
            assert_eq!(levels[last - 1].singleton_groups, 1, "{strategy:?}");
            assert_eq!(merged_group_sizes(&geom, strategy).last(), Some(&runs));
            assert_eq!(group_budget(&geom, strategy, runs), budget);
            let mut records: Vec<u64> = (0..geom.records() as u64).collect();
            records.shuffle(&mut StdRng::seed_from_u64(108));
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
            sys.set_service_mode(ServiceMode::Threaded);
            sys.load_records(0, &records);
            let report = sort_by_key_with(&mut sys, |&r| r, cfg(strategy)).unwrap();
            let out = sys.dump_records(report.final_portion);
            assert_eq!(
                out,
                (0..geom.records() as u64).collect::<Vec<_>>(),
                "{strategy:?}"
            );
            assert_eq!(sys.buffer_pool_stats().outstanding, 0);
        }
    }

    #[test]
    fn a_fault_inside_a_pipelined_group_strands_nothing() {
        // Seven sorted runs of 8 stripes in portion 1 with interleaved
        // keys, merged into portion 0 by the forecast loop with 5
        // landing blocks (batches from 2 free) and a stripe written
        // behind. Every operation of the merge is faulted in turn: each
        // must fail typed and, after the abort, leave no pooled buffer
        // lent out. Some of those faults must strike with a prefetch
        // batch in flight and a stripe behind.
        let geom = wide_geom();
        let runs: Vec<Run> = (0..7)
            .map(|r| Run {
                start: 8 * r,
                end: 8 * (r + 1),
                portion: 1,
            })
            .collect();
        assert_eq!(group_budget(&geom, MergeStrategy::Forecast, 7), (5, true));
        let records: Vec<u64> = (0..geom.records() as u64)
            .map(|a| if a < 224 { (a % 32) * 7 + a / 32 } else { a })
            .collect();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut both = 0;
            // 7 runs of 16 blocks: 112 single-block reads, 56 writes.
            for op in 0..168 {
                let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
                sys.set_service_mode(mode);
                sys.load_records(1, &records);
                let mut plan = FaultPlan::new();
                for disk in 0..geom.disks() {
                    plan = plan.fail_at(op, disk);
                }
                sys.set_faults(plan);
                let mut merge = Merge::new(&sys, MergeStrategy::Forecast, &runs);
                let err = merge
                    .run(&mut sys, 0, |&r| r, &mut Vec::new())
                    .expect_err("fault must abort the merge");
                assert!(matches!(err, PdmError::Fault { .. }), "got {err:?}");
                both += usize::from(!merge.batches.is_empty() && merge.writing.is_some());
                merge.abort(&mut sys);
                assert_eq!(
                    sys.buffer_pool_stats().outstanding,
                    0,
                    "abort stranded pooled buffers ({mode:?}, op {op})"
                );
            }
            assert!(both > 0, "no fault struck mid-pipeline in {mode:?}");
        }
    }
}
