//! An optional service-time model layered over the parallel-I/O count.
//!
//! The paper's cost model deliberately ignores head movement and
//! rotational latency (Section 1: "programmers often have no control
//! over these factors"). This module makes that abstraction *visible*:
//! each block access is charged a positioning cost — cheap if it is
//! sequential with the disk's previous access, expensive otherwise —
//! plus a transfer cost, and a parallel I/O takes as long as its
//! slowest disk (the operations are barrier-synchronous in the model).
//!
//! With the tracker enabled one can quantify, e.g., how much more a
//! one-pass MLD permutation (independent, scattered writes) costs in
//! simulated time than an MRC pass (purely sequential stripes) with
//! the *same* parallel-I/O count.

/// Per-disk service-time parameters (milliseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingModel {
    /// Positioning cost when the access is not sequential with the
    /// disk's previous access.
    pub seek_ms: f64,
    /// Positioning cost when it is (same or next slot).
    pub sequential_ms: f64,
    /// Transfer time per block.
    pub transfer_ms: f64,
}

impl TimingModel {
    /// A commodity-drive-flavoured default: 8 ms seek, 0.05 ms track
    /// continuation, 0.2 ms per block transfer.
    pub fn hdd() -> Self {
        TimingModel {
            seek_ms: 8.0,
            sequential_ms: 0.05,
            transfer_ms: 0.2,
        }
    }

    /// A solid-state-flavoured model where positioning barely matters.
    pub fn ssd() -> Self {
        TimingModel {
            seek_ms: 0.02,
            sequential_ms: 0.02,
            transfer_ms: 0.05,
        }
    }
}

/// Accumulates simulated elapsed time for a disk array.
#[derive(Clone, Debug)]
pub struct TimingTracker {
    model: TimingModel,
    /// Last slot accessed on each disk (None before first access).
    last_slot: Vec<Option<usize>>,
    elapsed_ms: f64,
    busy_ms: Vec<f64>,
    /// Reused per-operation busy scratch (see [`TimingTracker::record`]).
    op_busy_ms: Vec<f64>,
    seeks: u64,
    sequential: u64,
    network_ms: f64,
    stall_ms: f64,
}

impl TimingTracker {
    /// A tracker for `disks` disks under `model`.
    pub fn new(model: TimingModel, disks: usize) -> Self {
        TimingTracker {
            model,
            last_slot: vec![None; disks],
            elapsed_ms: 0.0,
            busy_ms: vec![0.0; disks],
            op_busy_ms: vec![0.0; disks],
            seeks: 0,
            sequential: 0,
            network_ms: 0.0,
            stall_ms: 0.0,
        }
    }

    /// Records one parallel I/O touching the given `(disk, slot)`
    /// pairs. The operation's duration is the maximum *per-disk* service
    /// time (barrier synchronization): when one operation charges
    /// several blocks to the same disk — gather/scatter batches do —
    /// that disk services them back to back, so its contribution to the
    /// makespan is the **sum** of its access costs, not the costliest
    /// single access.
    pub fn record(&mut self, accesses: impl IntoIterator<Item = (usize, usize)>) {
        self.op_busy_ms.fill(0.0);
        for (disk, slot) in accesses {
            let sequential = match self.last_slot[disk] {
                Some(prev) => slot == prev || slot == prev + 1,
                None => false,
            };
            let cost = if sequential {
                self.sequential += 1;
                self.model.sequential_ms
            } else {
                self.seeks += 1;
                self.model.seek_ms
            } + self.model.transfer_ms;
            self.last_slot[disk] = Some(slot);
            self.busy_ms[disk] += cost;
            self.op_busy_ms[disk] += cost;
        }
        let op_ms = self.op_busy_ms.iter().copied().fold(0.0f64, f64::max);
        self.elapsed_ms += op_ms;
    }

    /// Adds simulated *network* time to the makespan — the SimNet
    /// transport ([`crate::transport::SimNetModel`]) charges each frame
    /// latency plus bandwidth-proportional transfer time here. The
    /// charge is serialized (not overlapped with disk service): all
    /// frames funnel through the client's single network interface, so
    /// this is the link-limited bound rather than an optimistic
    /// overlap.
    pub fn add_network_ms(&mut self, ms: f64) {
        self.network_ms += ms;
        self.elapsed_ms += ms;
    }

    /// Simulated network time accrued so far (zero unless a SimNet
    /// transport is in use).
    pub fn network_ms(&self) -> f64 {
        self.network_ms
    }

    /// Adds stall time to the makespan: retry backoff and straggler
    /// delays, which hold an operation up without moving data over
    /// any network.
    pub fn add_stall_ms(&mut self, ms: f64) {
        self.stall_ms += ms;
        self.elapsed_ms += ms;
    }

    /// Stall time accrued so far (zero on a clean run).
    pub fn stall_ms(&self) -> f64 {
        self.stall_ms
    }

    /// Simulated elapsed (makespan) time so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ms
    }

    /// Per-disk busy time.
    pub fn busy_ms(&self) -> &[f64] {
        &self.busy_ms
    }

    /// Number of accesses charged the full seek.
    pub fn seeks(&self) -> u64 {
        self.seeks
    }

    /// Number of accesses charged the sequential rate.
    pub fn sequential_accesses(&self) -> u64 {
        self.sequential
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TimingModel {
        TimingModel {
            seek_ms: 10.0,
            sequential_ms: 1.0,
            transfer_ms: 0.5,
        }
    }

    #[test]
    fn first_access_is_a_seek() {
        let mut t = TimingTracker::new(model(), 2);
        t.record([(0, 0)]);
        assert_eq!(t.seeks(), 1);
        assert!((t.elapsed_ms() - 10.5).abs() < 1e-9);
    }

    #[test]
    fn sequential_access_is_cheap() {
        let mut t = TimingTracker::new(model(), 1);
        t.record([(0, 0)]);
        t.record([(0, 1)]); // next slot: sequential
        t.record([(0, 1)]); // same slot: sequential
        t.record([(0, 5)]); // jump: seek
        assert_eq!(t.seeks(), 2);
        assert_eq!(t.sequential_accesses(), 2);
        assert!((t.elapsed_ms() - (10.5 + 1.5 + 1.5 + 10.5)).abs() < 1e-9);
    }

    #[test]
    fn parallel_op_takes_slowest_disk() {
        let mut t = TimingTracker::new(model(), 2);
        t.record([(0, 0)]); // seed disk 0 at slot 0
                            // Disk 0 sequential (1.5), disk 1 first access = seek (10.5):
                            // the op costs max = 10.5.
        t.record([(0, 1), (1, 3)]);
        assert!((t.elapsed_ms() - (10.5 + 10.5)).abs() < 1e-9);
        assert!((t.busy_ms()[0] - 12.0).abs() < 1e-9);
        assert!((t.busy_ms()[1] - 10.5).abs() < 1e-9);
    }

    /// Regression test: an operation that charges several blocks to
    /// the same disk used to take the max over *single accesses*
    /// (10.5 here) instead of the per-disk sum — undercounting the
    /// makespan whenever gather/scatter batches stack a disk.
    #[test]
    fn multi_access_per_disk_sums_within_the_op() {
        let mut t = TimingTracker::new(model(), 2);
        // Disk 0: seek (10.5) then sequential continuation (1.5) →
        // busy 12.0 in this one op. Disk 1: one seek (10.5).
        t.record([(0, 3), (0, 4), (1, 7)]);
        assert!((t.elapsed_ms() - 12.0).abs() < 1e-9, "{}", t.elapsed_ms());
        assert!((t.busy_ms()[0] - 12.0).abs() < 1e-9);
        assert!((t.busy_ms()[1] - 10.5).abs() < 1e-9);
        assert_eq!(t.seeks(), 2);
        assert_eq!(t.sequential_accesses(), 1);
        // The makespan is never below the busiest disk's total.
        t.record([(0, 5), (0, 6), (0, 7)]); // 3 sequential: 4.5
        assert!((t.elapsed_ms() - 16.5).abs() < 1e-9);
    }

    #[test]
    fn network_time_extends_the_makespan() {
        let mut t = TimingTracker::new(model(), 1);
        t.record([(0, 0)]); // 10.5
        t.add_network_ms(2.25);
        t.add_network_ms(0.75);
        assert!((t.network_ms() - 3.0).abs() < 1e-9);
        assert!((t.elapsed_ms() - 13.5).abs() < 1e-9);
        // Disk accounting is untouched.
        assert!((t.busy_ms()[0] - 10.5).abs() < 1e-9);
    }

    #[test]
    fn stall_time_extends_the_makespan_apart_from_the_network() {
        let mut t = TimingTracker::new(model(), 1);
        t.record([(0, 0)]); // 10.5
        t.add_stall_ms(4.0);
        t.add_network_ms(1.0);
        assert!((t.stall_ms() - 4.0).abs() < 1e-9);
        assert!((t.network_ms() - 1.0).abs() < 1e-9);
        assert!((t.elapsed_ms() - 15.5).abs() < 1e-9);
    }

    #[test]
    fn backwards_jump_is_a_seek() {
        let mut t = TimingTracker::new(model(), 1);
        t.record([(0, 5)]);
        t.record([(0, 4)]);
        assert_eq!(t.seeks(), 2);
    }
}
