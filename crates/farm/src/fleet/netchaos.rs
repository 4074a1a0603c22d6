//! Seeded network adversary for the fleet transport.
//!
//! Mirrors `difftest::chaos` (fault budget, deterministic seed) but
//! torments the wire instead of the filesystem: requests are dropped,
//! delayed, duplicated, truncated mid-frame, or blackholed behind a
//! partition window. The client owns one [`NetChaos`] and consults it
//! before every exchange, so a chaos-tortured fleet run is replayable
//! from `(seed, budget)` alone — and CI can assert the merged report
//! stays byte-identical to a calm single-process run.
//!
//! Faults compose with the protocol's defenses one-to-one: `Drop` and
//! `Partition` exercise retries and lease expiry, `Truncate`
//! exercises CRC rejection, `Duplicate` replays a completed exchange
//! (second reply discarded) to exercise the coordinator's fencing and
//! idempotent re-acks, `Delay` widens every race window.

use std::time::{Duration, Instant};

use fpcore::rng::ChaCha8Rng;

/// Shape of the network adversary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetChaosConfig {
    /// Total faults to inject (0 = chaos off).
    pub budget: u32,
    /// Seed for the fault schedule; equal seeds give equal schedules.
    pub seed: u64,
    /// Upper bound on an injected `Delay`, in milliseconds.
    pub max_delay_ms: u64,
    /// Length of an injected partition window, in milliseconds.
    pub partition_ms: u64,
}

impl Default for NetChaosConfig {
    fn default() -> NetChaosConfig {
        NetChaosConfig { budget: 0, seed: 0, max_delay_ms: 150, partition_ms: 400 }
    }
}

/// One injected network fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetFault {
    /// The request is never sent; the caller sees an I/O error.
    Drop,
    /// The exchange happens after this many extra milliseconds.
    Delay(u64),
    /// The exchange happens twice; the duplicate's reply is discarded.
    /// Only offered for shard-scoped requests, where it probes the
    /// coordinator's `(epoch, fence)` idempotency.
    Duplicate,
    /// A deliberately torn frame is sent (CRC cannot match), then the
    /// connection drops; the caller sees an I/O error.
    Truncate,
    /// Every exchange fails fast for this many milliseconds.
    Partition(u64),
}

/// The adversary: a seeded schedule plus the live partition window.
#[derive(Debug)]
pub struct NetChaos {
    cfg: NetChaosConfig,
    rng: ChaCha8Rng,
    injected: u32,
    partition_until: Option<Instant>,
}

impl NetChaos {
    /// Adversary under `cfg`.
    pub fn new(cfg: NetChaosConfig) -> NetChaos {
        NetChaos {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            injected: 0,
            partition_until: None,
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u32 {
        self.injected
    }

    /// `true` while an injected partition window is open.
    pub fn partition_active(&self) -> bool {
        self.partition_until.is_some_and(|t| Instant::now() < t)
    }

    /// Open a partition window `ms` long (the client calls this when it
    /// draws [`NetFault::Partition`]).
    pub fn begin_partition(&mut self, ms: u64) {
        self.partition_until = Some(Instant::now() + Duration::from_millis(ms));
    }

    /// Decide the fault (if any) for the next exchange of request kind
    /// `kind` (see `proto::Request::kind`). Roughly one exchange in
    /// three draws a fault until the budget runs out; the draw sequence
    /// is a pure function of the seed.
    pub fn next_fault(&mut self, kind: &str) -> Option<NetFault> {
        if self.injected >= self.cfg.budget || self.rng.gen_range(0..3) != 0 {
            return None;
        }
        let dup_ok = matches!(kind, "heartbeat" | "complete" | "release" | "poison");
        let fault = match self.rng.gen_range(0..5) {
            0 => NetFault::Drop,
            1 => NetFault::Delay(1 + self.rng.gen_range(0..self.cfg.max_delay_ms.max(1))),
            2 if dup_ok => NetFault::Duplicate,
            2 => NetFault::Drop,
            3 => NetFault::Truncate,
            _ => NetFault::Partition(self.cfg.partition_ms),
        };
        self.injected += 1;
        obs::add("fleet.net_faults", 1);
        Some(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos(budget: u32, seed: u64) -> NetChaos {
        NetChaos::new(NetChaosConfig { budget, seed, ..NetChaosConfig::default() })
    }

    #[test]
    fn equal_seeds_give_equal_fault_schedules() {
        let mut a = chaos(32, 9);
        let mut b = chaos(32, 9);
        for _ in 0..200 {
            assert_eq!(a.next_fault("complete"), b.next_fault("complete"));
        }
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "a 32-fault budget over 200 rolls must fire");
    }

    #[test]
    fn budget_bounds_the_injected_faults() {
        let mut c = chaos(5, 3);
        for _ in 0..500 {
            c.next_fault("lease");
        }
        assert_eq!(c.injected(), 5);
        assert_eq!(c.next_fault("lease"), None, "budget exhausted");
    }

    #[test]
    fn duplicates_are_never_offered_for_lease_requests() {
        // A duplicated Lease would grant a second shard nobody runs
        // (harmless — it expires — but slow); the schedule must demote
        // that draw to a Drop instead.
        for seed in 0..64u64 {
            let mut c = chaos(1000, seed);
            for _ in 0..200 {
                assert_ne!(c.next_fault("lease"), Some(NetFault::Duplicate), "seed {seed}");
            }
        }
    }

    #[test]
    fn partition_window_opens_and_closes() {
        let mut c = chaos(0, 0);
        assert!(!c.partition_active());
        c.begin_partition(30);
        assert!(c.partition_active());
        std::thread::sleep(Duration::from_millis(45));
        assert!(!c.partition_active());
    }

    #[test]
    fn zero_budget_is_silent() {
        let mut c = chaos(0, 7);
        for _ in 0..100 {
            assert_eq!(c.next_fault("complete"), None);
        }
    }
}
