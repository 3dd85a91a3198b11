//! Retry policy and accounting for fault recovery.
//!
//! PRs 6–7 built clean *fail-fast*: typed errors, proven buffer
//! hygiene, a severed link answering every in-flight command. This
//! module adds the *recovery* half: a [`RetryPolicy`] bounds how many
//! times the [`crate::system::DiskSystem`] may re-attempt a
//! retryable failure ([`crate::error::PdmError::is_retryable`]) with
//! exponential backoff, whether stuck workers are timed out, and
//! whether dead transport links may be respawned
//! ([`crate::parallel::Transport::respawn`]).
//!
//! Every recovery action lands in a [`RetryStats`] ledger that rides
//! alongside [`crate::stats::IoStats`] / [`crate::stats::MsgStats`]
//! into reports and CLI output, so recovery is *exactly* accountable:
//! a run that absorbed `k` injected transient faults shows exactly
//! `k` retries, and a run that revived one killed worker shows
//! exactly one respawn. Retried operations are **charged once** — the
//! parallel-I/O counts of a recovered run equal a clean run's, which
//! is what the recovery equivalence tests pin.

use std::fmt;

/// Bounds on the retry layer. The default (`max_attempts == 1`) is
/// PR 6/7's fail-fast behavior: no retries, no timeouts, no respawns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (`>= 1`).
    /// `1` disables the retry layer entirely.
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is
    /// `min(base_backoff_ms << (k-1), max_backoff_ms)` milliseconds.
    /// Zero (the default) retries immediately — what the deterministic
    /// tests use.
    pub base_backoff_ms: u64,
    /// Cap on one backoff interval.
    pub max_backoff_ms: u64,
    /// Per-operation completion timeout. `None` (the default) waits
    /// forever, as before. With a budget, a worker that exceeds it is
    /// treated as stuck: its link is severed so the in-flight buffers
    /// come home, and the failure surfaces (or retries) as
    /// [`crate::error::PdmError::Timeout`]. A batch of `k` operations
    /// in flight together (a memoryload's reads or writes) waits up to
    /// `k` budgets, since a disk answers its run of blocks at the end.
    pub op_timeout_ms: Option<u64>,
    /// Allow reviving dead transport links mid-retry
    /// ([`crate::parallel::Transport::respawn`]) — for Unix-socket
    /// transports this relaunches the `pdm-diskd` worker process and
    /// replays the handshake.
    pub respawn: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            op_timeout_ms: None,
            respawn: false,
        }
    }
}

impl RetryPolicy {
    /// A fault-tolerant profile: up to 4 attempts, immediate retries,
    /// worker respawn enabled, no completion timeout. Deterministic
    /// (no wall-clock sleeps), so tests and benches use it as-is.
    pub fn fault_tolerant() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            op_timeout_ms: None,
            respawn: true,
        }
    }

    /// True when at least one retry is allowed.
    pub fn retries_enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// The backoff before retry `attempt` (1-based): exponential in
    /// the base, capped at `max_backoff_ms`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        if self.base_backoff_ms == 0 || attempt == 0 {
            return 0;
        }
        self.base_backoff_ms
            .checked_shl(attempt - 1)
            .unwrap_or(u64::MAX)
            .min(self.max_backoff_ms.max(self.base_backoff_ms))
    }
}

/// The recovery ledger: what the retry layer actually did. Rides next
/// to [`crate::stats::IoStats`] and [`crate::stats::MsgStats`] in
/// reports; all-zero on a clean fail-fast run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Operation attempts, including every first try.
    pub attempts: u64,
    /// Re-attempts after a retryable failure (== attempts minus
    /// operations admitted).
    pub retries: u64,
    /// Transient transfer faults observed (injected or real).
    pub transient_faults: u64,
    /// Per-op timeouts observed (stuck workers, oversized stragglers).
    pub timeouts: u64,
    /// Total backoff milliseconds charged before retries.
    pub backoff_ms: u64,
    /// Dead transport links revived (worker processes relaunched).
    pub respawns: u64,
}

impl RetryStats {
    /// True when the run needed no recovery at all.
    pub fn is_clean(&self) -> bool {
        self.retries == 0 && self.timeouts == 0 && self.respawns == 0 && self.transient_faults == 0
    }

    /// The delta from `earlier` to `self` (both cumulative).
    pub fn since(&self, earlier: &RetryStats) -> RetryStats {
        RetryStats {
            attempts: self.attempts - earlier.attempts,
            retries: self.retries - earlier.retries,
            transient_faults: self.transient_faults - earlier.transient_faults,
            timeouts: self.timeouts - earlier.timeouts,
            backoff_ms: self.backoff_ms - earlier.backoff_ms,
            respawns: self.respawns - earlier.respawns,
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RetryStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.transient_faults += other.transient_faults;
        self.timeouts += other.timeouts;
        self.backoff_ms += other.backoff_ms;
        self.respawns += other.respawns;
    }
}

impl fmt::Display for RetryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} retries ({} transient, {} timeout), {} respawns, {} ms backoff",
            self.retries, self.transient_faults, self.timeouts, self.respawns, self.backoff_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fail_fast() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert!(!p.retries_enabled());
        assert_eq!(p.op_timeout_ms, None);
        assert!(!p.respawn);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 10,
            max_backoff_ms: 50,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ms(1), 10);
        assert_eq!(p.backoff_ms(2), 20);
        assert_eq!(p.backoff_ms(3), 40);
        assert_eq!(p.backoff_ms(4), 50, "capped");
        assert_eq!(p.backoff_ms(63), 50, "shift overflow saturates");
        // Zero base never sleeps, whatever the attempt.
        assert_eq!(RetryPolicy::fault_tolerant().backoff_ms(3), 0);
    }

    #[test]
    fn stats_since_and_merge() {
        let mut a = RetryStats {
            attempts: 10,
            retries: 2,
            transient_faults: 2,
            timeouts: 0,
            backoff_ms: 30,
            respawns: 1,
        };
        let earlier = RetryStats {
            attempts: 4,
            retries: 1,
            transient_faults: 1,
            timeouts: 0,
            backoff_ms: 10,
            respawns: 0,
        };
        let d = a.since(&earlier);
        assert_eq!(d.attempts, 6);
        assert_eq!(d.retries, 1);
        assert_eq!(d.respawns, 1);
        a.merge(&d);
        assert_eq!(a.attempts, 16);
        assert!(!a.is_clean());
        assert!(RetryStats::default().is_clean());
        let shown = a.to_string();
        assert!(shown.contains("retries"), "{shown}");
    }
}
