//! Shared ESP (estimated success probability) helpers for the benchmark
//! sweeps: glue between a compiled schedule, the device's calibration
//! [`Target`], the duration-aware [`Timeline`] and the per-channel
//! [`TargetNoiseModel`].
//!
//! [`Target`]: twoqan_device::Target
//! [`Timeline`]: twoqan_circuit::Timeline
//! [`TargetNoiseModel`]: twoqan_sim::TargetNoiseModel

use twoqan::decompose::timeline_with_target;
use twoqan_circuit::ScheduledCircuit;
use twoqan_device::Device;
use twoqan_sim::{EspBreakdown, TargetNoiseModel};

/// The noise figures of one execution of `schedule` on `device`, all
/// derived from a single duration-aware timeline so the ESP's idle factor
/// and the reported duration can never disagree.
#[derive(Debug, Clone, Copy)]
pub struct NoisePoint {
    /// Per-channel ESP factors (gate, idle, readout).
    pub breakdown: EspBreakdown,
    /// Circuit duration in nanoseconds — the makespan of the same timeline
    /// the idle factor was computed over.  For schedules that were never
    /// mapped to the device (the NoMap reference) this is the hypothetical
    /// duration under the target's average gate times, matching the
    /// average-fallback channels its ESP uses.
    pub duration_ns: f64,
}

/// Computes the [`NoisePoint`] of `schedule` on `device`: per-edge
/// two-qubit channels, per-qubit single-qubit and read-out channels, and
/// per-qubit idle decoherence over the duration-aware timeline.  Every
/// qubit the schedule touches is measured.
pub fn noise_point(schedule: &ScheduledCircuit, device: &Device) -> NoisePoint {
    let target = device.target();
    let timeline = timeline_with_target(schedule, device.default_basis(), target);
    let measured = timeline.used_qubits();
    NoisePoint {
        breakdown: TargetNoiseModel::from_device(device).breakdown(schedule, &timeline, &measured),
        duration_ns: timeline.total_ns(),
    }
}

/// The ESP factors of one execution of `schedule` on `device` (see
/// [`noise_point`]).
pub fn esp_breakdown(schedule: &ScheduledCircuit, device: &Device) -> EspBreakdown {
    noise_point(schedule, device).breakdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compilers::CompilerKind;
    use crate::workloads::{Workload, WorkloadKind};
    use twoqan_device::Device;

    #[test]
    fn esp_is_a_probability_and_favours_smaller_circuits() {
        let device = Device::montreal();
        let small = Workload::generate(WorkloadKind::NnnIsing, 6, 0);
        let large = Workload::generate(WorkloadKind::NnnIsing, 14, 0);
        let (s_small, _) = CompilerKind::TwoQan.compile(&small.circuit, &device);
        let (s_large, _) = CompilerKind::TwoQan.compile(&large.circuit, &device);
        let e_small = esp_breakdown(&s_small, &device).esp();
        let e_large = esp_breakdown(&s_large, &device).esp();
        assert!(e_small > 0.0 && e_small < 1.0);
        assert!(e_large > 0.0 && e_large < 1.0);
        assert!(e_small > e_large, "{e_small} vs {e_large}");
    }

    #[test]
    fn nomap_noise_point_is_internally_consistent() {
        // The deviceless NoMap reference gets both its ESP idle factor and
        // its duration from the same average-fallback timeline — nonzero
        // and mutually consistent, never "decoheres over a 0 ns circuit".
        let device = Device::montreal();
        let w = Workload::generate(WorkloadKind::NnnIsing, 8, 0);
        let (schedule, metrics) = CompilerKind::NoMap.compile(&w.circuit, &device);
        assert_eq!(metrics.duration_ns, 0.0, "deviceless metrics carry none");
        let point = noise_point(&schedule, &device);
        assert!(point.duration_ns > 0.0);
        assert!(point.breakdown.idle < 1.0);
    }

    #[test]
    fn esp_breakdown_factors_multiply_to_esp() {
        let device = Device::aspen();
        let w = Workload::generate(WorkloadKind::NnnXy, 8, 0);
        let (s, _) = CompilerKind::TwoQan.compile(&w.circuit, &device);
        let b = esp_breakdown(&s, &device);
        assert!((b.esp() - b.gate * b.idle * b.readout).abs() < 1e-15);
        assert!(b.gate <= 1.0 && b.idle <= 1.0 && b.readout <= 1.0);
    }
}
