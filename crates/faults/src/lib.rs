//! # madness-faults
//!
//! Deterministic fault injection and recovery policy for the madness-rs
//! simulators.
//!
//! At Titan scale the hybrid Apply pipeline's implicit assumption — every
//! kernel launches, every DMA completes, every node keeps pace — is
//! exactly what breaks first. This crate makes failure a first-class,
//! *reproducible* input to the simulators:
//!
//! * a [`FaultPlan`] describes **what goes wrong and when**: seeded
//!   per-injection-point failure rates, explicit count- or
//!   SimTime-triggered injections, a device-lost instant, a slow-node
//!   straggler multiplier and a message-drop rate, optionally confined to
//!   a fault window;
//! * a [`FaultInjector`] walks a plan at the simulators' injection points
//!   (kernel launch, DMA, stream drain, network send). All randomness is
//!   a stateless hash of `(seed, injection point, occurrence index)`, so
//!   a given plan produces the **same faults at the same places on every
//!   run**, independent of query order — chaos tests are replayable and
//!   failures bisectable;
//! * [`TaskError`], [`RecoveryPolicy`], [`DeviceHealth`] and
//!   [`HealthTracker`] are the error-path vocabulary the runtime layers
//!   share: per-task failure causes, capped exponential backoff with
//!   deterministic jitter, and the quarantine → probing re-admission
//!   state machine;
//! * [`NodeFault`] scales the taxonomy from devices to whole nodes
//!   (crash / partition / rejoin at planned instants), and
//!   [`CircuitBreaker`] generalizes the health ladder to per-
//!   `(tenant, node)` closed → open → half-open gating with
//!   deterministic probe admission for the serving cluster.
//!
//! The cardinal invariant: an **empty plan is inert**. Every injector
//! query on [`FaultPlan::none`] returns "no fault" without perturbing any
//! simulated timing, so fault-aware code paths stay bit-identical to the
//! fault-free ones (the `fault_free_identity` integration tests pin
//! this).
//!
//! The fault taxonomy ([`FaultKind`], [`FaultAction`], [`FaultEvent`])
//! lives in `madness-trace` so the journal can record fault events
//! without a dependency cycle; this crate re-exports it as the canonical
//! vocabulary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod breaker;
mod plan;
mod recovery;
mod timeline;

pub use breaker::{BreakerMap, BreakerPolicy, BreakerState, CircuitBreaker};
pub use madness_trace::{FaultAction, FaultEvent, FaultKind};
pub use plan::{FaultInjector, FaultPlan, Injection, NodeFault, TaskError, Trigger};
pub use recovery::{DeviceHealth, GpuGate, HealthTracker, RecoveryPolicy};
pub use timeline::NodeTimeline;

/// Stateless deterministic draw in `[0, 1)` for `(seed, salt, index)`.
///
/// splitmix64 over the mixed key: the same triple always yields the same
/// value, and consecutive indices are statistically independent. Used
/// for fault-rate draws and backoff jitter here, and by the cluster's
/// arrival generator and DAG fault model (each with its own salts), so
/// no decision stream carries RNG state — determinism cannot be lost to
/// query reordering.
pub fn draw(seed: u64, salt: u64, index: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.rotate_left(17))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_spread() {
        assert_eq!(draw(1, 2, 3), draw(1, 2, 3));
        assert_ne!(draw(1, 2, 3), draw(1, 2, 4));
        assert_ne!(draw(1, 2, 3), draw(2, 2, 3));
        let mean: f64 = (0..10_000).map(|i| draw(42, 7, i)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "biased draws: mean {mean}");
        for i in 0..10_000 {
            let d = draw(42, 7, i);
            assert!((0.0..1.0).contains(&d));
        }
    }
}
