//! Common result type of the baseline compilers.

use twoqan::pipeline::CompiledOutput;
use twoqan_circuit::{HardwareMetrics, ScheduledCircuit};
use twoqan_device::{Device, TwoQubitBasis};

/// The output of a baseline compilation: a scheduled circuit over physical
/// qubits plus its hardware metrics.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Human-readable compiler name (used in benchmark tables).
    pub compiler: String,
    /// The scheduled circuit over physical qubits (application-level
    /// unitaries, SWAPs).
    pub hardware_circuit: ScheduledCircuit,
    /// Gate counts and depths for the requested native basis.
    pub metrics: HardwareMetrics,
    /// The native basis the metrics were computed for.
    pub basis: TwoQubitBasis,
    /// The initial placement `initial_placement[logical] = physical` the
    /// compiler started from, consumed by the verification subsystem to
    /// replay the compiled circuit (`None` for results built before the
    /// placement was recorded).
    pub initial_placement: Option<Vec<usize>>,
}

impl BaselineResult {
    /// Builds a result by computing metrics for the device's default basis.
    pub fn new(
        compiler: impl Into<String>,
        hardware_circuit: ScheduledCircuit,
        device: &Device,
    ) -> Self {
        let basis = device.default_basis();
        let metrics = HardwareMetrics::of(&hardware_circuit, basis.cost_model());
        Self {
            compiler: compiler.into(),
            hardware_circuit,
            metrics,
            basis,
            initial_placement: None,
        }
    }

    /// Number of inserted SWAPs.
    pub fn swap_count(&self) -> usize {
        self.metrics.swap_count
    }

    /// Returns `true` if every two-qubit gate acts on adjacent device qubits.
    pub fn hardware_compatible(&self, device: &Device) -> bool {
        self.hardware_circuit
            .iter_gates()
            .filter(|g| g.is_two_qubit())
            .all(|g| device.are_adjacent(g.qubit0(), g.qubit1()))
    }
}

impl From<CompiledOutput> for BaselineResult {
    /// Collapses a pipeline [`CompiledOutput`] into the legacy baseline
    /// result shape (the pipeline report is dropped).
    fn from(out: CompiledOutput) -> Self {
        Self {
            compiler: out.compiler.to_string(),
            hardware_circuit: out.hardware_circuit,
            metrics: out.metrics,
            basis: out.basis,
            initial_placement: Some(out.initial_placement),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_circuit::{Gate, ScheduledCircuit};

    #[test]
    fn result_computes_metrics_for_device_basis() {
        let device = Device::montreal();
        let schedule = ScheduledCircuit::asap_from_gates(
            device.num_qubits(),
            &[Gate::canonical(0, 1, 0.0, 0.0, 0.4), Gate::swap(1, 4)],
        );
        let r = BaselineResult::new("test", schedule, &device);
        assert_eq!(r.basis, TwoQubitBasis::Cnot);
        assert_eq!(r.swap_count(), 1);
        assert_eq!(r.metrics.hardware_two_qubit_count, 5);
        assert!(r.hardware_compatible(&device));
    }

    #[test]
    fn hardware_compatibility_detects_non_adjacent_gates() {
        let device = Device::montreal();
        let schedule = ScheduledCircuit::asap_from_gates(
            device.num_qubits(),
            &[Gate::canonical(0, 26, 0.0, 0.0, 0.4)],
        );
        let r = BaselineResult::new("test", schedule, &device);
        assert!(!r.hardware_compatible(&device));
    }
}
