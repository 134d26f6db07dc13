//! Deterministic chaos harness for the sweep engine.
//!
//! [`ChaosConfig`] is the one source of recoverable faults in a sweep.
//! It injects the three fault classes the robustness subsystem must
//! survive — per-trial timeouts, evaluator panics, and transient
//! environment failures — as a pure function of
//! `(chaos seed, trial id, attempt)`. Determinism is the point: a test
//! that fails under a particular fault mix replays the identical mix
//! from the same seed, and two sweeps with the same chaos config observe
//! the same faults regardless of thread count or scheduling order.
//!
//! Faults are rolled *per attempt*, so a panic on attempt 1 usually
//! clears on attempt 2 — which is exactly the shape of failure a
//! trial's three attempts exist to absorb.
//!
//! ```
//! use hydronas_nas::chaos::{ChaosConfig, ChaosFault};
//!
//! let chaos = ChaosConfig::new(7).with_panics(500); // 50% of attempts panic
//! let first = chaos.fault_for(3, 1);
//! assert_eq!(first, chaos.fault_for(3, 1), "same roll, same fault");
//! assert!(matches!(first, None | Some(ChaosFault::Panic)));
//! ```

use crate::scheduler::mix64;

/// A fault the harness injects into one trial attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChaosFault {
    /// The attempt is declared over its simulated deadline (terminal:
    /// timeouts are not retried).
    Timeout,
    /// The evaluator panics mid-attempt (transient: caught and retried).
    Panic,
    /// The attempt fails with an environment error (transient: retried).
    Transient,
}

/// Seeded fault-injection rates, in per-mille of trial attempts.
///
/// Built with `with_*` chaining; the struct is `#[non_exhaustive]` so
/// future fault classes can be added without breaking callers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ChaosConfig {
    seed: u64,
    timeout_per_mille: u16,
    panic_per_mille: u16,
    transient_per_mille: u16,
}

/// Domain-separation salt so chaos rolls never correlate with the
/// scheduler's own injected-failure stream.
const CHAOS_SALT: u64 = 0xC4A0_5BAD_FA17_5EED;

impl ChaosConfig {
    /// A harness with the given seed and every fault rate at zero.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            ..ChaosConfig::default()
        }
    }

    /// Sets the timeout-injection rate (per mille of attempts, capped
    /// at 1000).
    pub fn with_timeouts(mut self, per_mille: u16) -> ChaosConfig {
        self.timeout_per_mille = per_mille.min(1000);
        self
    }

    /// Sets the panic-injection rate (per mille of attempts).
    pub fn with_panics(mut self, per_mille: u16) -> ChaosConfig {
        self.panic_per_mille = per_mille.min(1000);
        self
    }

    /// Sets the transient-failure rate (per mille of attempts).
    pub fn with_transients(mut self, per_mille: u16) -> ChaosConfig {
        self.transient_per_mille = per_mille.min(1000);
        self
    }

    /// The fault injected into `(trial_id, attempt)`, if any — a pure
    /// function of the config, so every worker (and every rerun)
    /// observes the same fault schedule. The scheduler's splitmix64
    /// mixer decorrelates the roll from raw id/attempt arithmetic.
    pub fn fault_for(&self, trial_id: usize, attempt: usize) -> Option<ChaosFault> {
        let h = mix64(
            mix64(self.seed ^ CHAOS_SALT) ^ mix64(trial_id as u64) ^ ((attempt as u64) << 32),
        );
        let roll = (h % 1000) as u16;
        if roll < self.timeout_per_mille {
            Some(ChaosFault::Timeout)
        } else if roll < self.timeout_per_mille + self.panic_per_mille {
            Some(ChaosFault::Panic)
        } else if roll < self.timeout_per_mille + self.panic_per_mille + self.transient_per_mille {
            Some(ChaosFault::Transient)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_inject_nothing() {
        let chaos = ChaosConfig::new(1);
        for id in 0..100 {
            for attempt in 1..4 {
                assert_eq!(chaos.fault_for(id, attempt), None);
            }
        }
    }

    #[test]
    fn full_rate_injects_everywhere() {
        let chaos = ChaosConfig::new(2).with_timeouts(1000);
        for id in 0..100 {
            assert_eq!(chaos.fault_for(id, 1), Some(ChaosFault::Timeout));
        }
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_the_seed() {
        let a = ChaosConfig::new(3).with_panics(300).with_transients(300);
        let b = ChaosConfig::new(3).with_panics(300).with_transients(300);
        let c = ChaosConfig::new(4).with_panics(300).with_transients(300);
        let schedule = |cfg: &ChaosConfig| -> Vec<Option<ChaosFault>> {
            (0..200).map(|id| cfg.fault_for(id, 1)).collect()
        };
        assert_eq!(schedule(&a), schedule(&b));
        assert_ne!(schedule(&a), schedule(&c));
    }

    #[test]
    fn rates_land_near_their_nominal_frequency() {
        let chaos = ChaosConfig::new(5)
            .with_timeouts(100)
            .with_panics(100)
            .with_transients(100);
        let n = 10_000usize;
        let mut counts = [0usize; 3];
        for id in 0..n {
            match chaos.fault_for(id, 1) {
                Some(ChaosFault::Timeout) => counts[0] += 1,
                Some(ChaosFault::Panic) => counts[1] += 1,
                Some(ChaosFault::Transient) => counts[2] += 1,
                _ => {}
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / n as f64;
            assert!(
                (0.05..=0.15).contains(&rate),
                "band {i} rate {rate} far from nominal 0.10"
            );
        }
    }

    #[test]
    fn attempts_roll_independently() {
        // A fault on attempt 1 must not pin the same fault on attempt 2,
        // otherwise retries could never clear injected panics.
        let chaos = ChaosConfig::new(6).with_panics(500);
        let differs = (0..200).any(|id| chaos.fault_for(id, 1) != chaos.fault_for(id, 2));
        assert!(differs, "attempt number never changed the roll");
    }

    #[test]
    fn rates_are_capped_at_1000() {
        let chaos = ChaosConfig::new(7).with_timeouts(5000);
        assert_eq!(chaos, ChaosConfig::new(7).with_timeouts(1000));
        assert_eq!(chaos.fault_for(0, 1), Some(ChaosFault::Timeout));
    }
}
