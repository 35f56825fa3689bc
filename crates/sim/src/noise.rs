//! The device noise model used in place of real-hardware execution.
//!
//! A circuit with `G₂` native two-qubit gates, `G₁` single-qubit gates,
//! depth `D` and `n` measured qubits executed on a device with two-qubit
//! error `e₂`, single-qubit error `e₁`, read-out error `e_r`, gate times and
//! coherence times `T1/T2` is assigned the success probability
//!
//! ```text
//! F = (1 − e₂)^G₂ · (1 − e₁)^G₁ · (1 − e_r)^n · F_idle(D)
//! ```
//!
//! and the noisy expectation of a traceless observable is estimated with the
//! global depolarizing approximation `⟨C⟩_noisy ≈ F · ⟨C⟩_ideal` (the fully
//! mixed state contributes 0).  This reproduces the property Fig. 10
//! demonstrates: compilations with fewer hardware gates and shallower
//! circuits retain a larger fraction of the ideal signal, and performance
//! decays towards the random-guessing value as circuits grow.

use twoqan_circuit::{HardwareMetrics, ScheduledCircuit, Timeline};
use twoqan_device::{Calibration, Device, Target};
use twoqan_math::cost::TwoQubitBasisCost;

/// A global-depolarizing noise model derived from device calibration data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    calibration: Calibration,
}

impl NoiseModel {
    /// Builds the noise model of a device.
    pub fn from_device(device: &Device) -> Self {
        Self {
            calibration: *device.calibration(),
        }
    }

    /// A noiseless model (fidelity 1 for every circuit).
    pub fn noiseless() -> Self {
        Self {
            calibration: Calibration::noiseless(),
        }
    }

    /// The underlying calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Estimated probability that the whole circuit executes without any
    /// error, given its hardware metrics and the number of measured qubits.
    pub fn circuit_fidelity(&self, metrics: &HardwareMetrics, measured_qubits: usize) -> f64 {
        let c = &self.calibration;
        let two_qubit = c
            .two_qubit_fidelity()
            .powi(metrics.hardware_two_qubit_count as i32);
        // Single-qubit gates: the explicit rotations plus the layers the
        // decomposition interleaves between native gates (estimated as one
        // rotation per native two-qubit gate per qubit).
        let single_count =
            metrics.explicit_single_qubit_count + 2 * metrics.hardware_two_qubit_count;
        let single_qubit = c.single_qubit_fidelity().powi(single_count as i32);
        let readout = (1.0 - c.readout_error).powi(measured_qubits as i32);
        let idle_time_ns = metrics.hardware_two_qubit_depth as f64 * c.two_qubit_gate_ns
            + metrics.total_depth_estimate as f64 * c.single_qubit_gate_ns;
        // Decoherence is modelled as a single aggregate factor for the whole
        // circuit duration.  (Raising it to the qubit count would double-count
        // errors that the per-gate fidelities already capture and pushes every
        // >10-qubit circuit to zero, which is more pessimistic than the
        // hardware behaviour reported in Fig. 10.)
        let idle = c.idle_survival(idle_time_ns);
        two_qubit * single_qubit * readout * idle
    }

    /// The noisy expectation of a traceless observable under the global
    /// depolarizing approximation.
    pub fn noisy_expectation(
        &self,
        ideal_expectation: f64,
        metrics: &HardwareMetrics,
        measured_qubits: usize,
    ) -> f64 {
        self.circuit_fidelity(metrics, measured_qubits) * ideal_expectation
    }

    /// The error probability of one native two-qubit gate (used by the
    /// trajectory sampler).
    pub fn two_qubit_error(&self) -> f64 {
        self.calibration.two_qubit_error
    }

    /// The per-qubit read-out error probability.
    pub fn readout_error(&self) -> f64 {
        self.calibration.readout_error
    }
}

/// The multiplicative parts of an estimated success probability (ESP), kept
/// separate so multi-layer circuits can be scaled exactly: gate and idle
/// factors compound per layer, the read-out factor applies once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EspBreakdown {
    /// Product of per-gate success probabilities (per-edge two-qubit
    /// channels, per-qubit single-qubit channels).
    pub gate: f64,
    /// Product of per-qubit idle-survival probabilities over the timeline's
    /// per-qubit idle times.
    pub idle: f64,
    /// Product of per-qubit read-out success probabilities over the
    /// measured qubits.
    pub readout: f64,
}

impl EspBreakdown {
    /// The estimated success probability: `gate · idle · readout`.
    pub fn esp(&self) -> f64 {
        self.gate * self.idle * self.readout
    }

    /// The ESP of `layers` repetitions of the circuit (gate and idle
    /// factors compound, read-out happens once at the end).
    pub fn esp_layers(&self, layers: usize) -> f64 {
        (self.gate * self.idle).powi(layers as i32) * self.readout
    }
}

/// A per-channel noise model over a heterogeneous device [`Target`]: every
/// two-qubit gate is weighted by *its edge's* calibrated error, every
/// single-qubit gate and read-out by *its qubit's*, and idle decoherence by
/// each qubit's own T1/T2 over its timeline idle time.  This is the
/// noise-model counterpart of the calibration-aware compiler passes — on a
/// uniform target it coincides with the device-average accounting.
#[derive(Debug, Clone, Copy)]
pub struct TargetNoiseModel<'a> {
    target: &'a Target,
    basis: TwoQubitBasisCost,
}

impl<'a> TargetNoiseModel<'a> {
    /// Builds the model for a target and the native basis its circuits are
    /// decomposed into.
    pub fn new(target: &'a Target, basis: TwoQubitBasisCost) -> Self {
        Self { target, basis }
    }

    /// Builds the model of a device (its target + default basis).
    pub fn from_device(device: &'a Device) -> Self {
        Self::new(device.target(), device.default_basis().cost_model())
    }

    /// The underlying target.
    pub fn target(&self) -> &Target {
        self.target
    }

    /// The ESP factors of one execution of `schedule`, whose duration-aware
    /// [`Timeline`] supplies the per-qubit idle times, measuring
    /// `measured_qubits` at the end.  The accounting itself lives in
    /// [`Target::esp_factors`] — the single formula the compiler's trial
    /// selection and this model share.
    pub fn breakdown(
        &self,
        schedule: &ScheduledCircuit,
        timeline: &Timeline,
        measured_qubits: &[usize],
    ) -> EspBreakdown {
        let (gate, idle, readout) =
            self.target
                .esp_factors(schedule, timeline, self.basis, measured_qubits);
        EspBreakdown {
            gate,
            idle,
            readout,
        }
    }

    /// The estimated success probability of one execution of `schedule`
    /// (see [`TargetNoiseModel::breakdown`]).
    pub fn esp(
        &self,
        schedule: &ScheduledCircuit,
        timeline: &Timeline,
        measured_qubits: &[usize],
    ) -> f64 {
        self.breakdown(schedule, timeline, measured_qubits).esp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_circuit::{Gate, ScheduledCircuit};
    use twoqan_device::TwoQubitBasis;

    fn metrics_of(gates: &[Gate], n: usize) -> HardwareMetrics {
        let s = ScheduledCircuit::asap_from_gates(n, gates);
        HardwareMetrics::of(&s, TwoQubitBasis::Cnot.cost_model())
    }

    #[test]
    fn noiseless_model_gives_unit_fidelity() {
        let m = metrics_of(&[Gate::canonical(0, 1, 0.0, 0.0, 0.3)], 2);
        let model = NoiseModel::noiseless();
        assert_eq!(model.circuit_fidelity(&m, 2), 1.0);
        assert_eq!(model.noisy_expectation(0.7, &m, 2), 0.7);
    }

    #[test]
    fn fidelity_decreases_with_gate_count() {
        let small = metrics_of(&[Gate::canonical(0, 1, 0.0, 0.0, 0.3)], 4);
        let large = metrics_of(
            &[
                Gate::canonical(0, 1, 0.0, 0.0, 0.3),
                Gate::canonical(2, 3, 0.0, 0.0, 0.3),
                Gate::swap(1, 2),
                Gate::canonical(0, 3, 0.0, 0.0, 0.3),
            ],
            4,
        );
        let model = NoiseModel::from_device(&Device::montreal());
        let f_small = model.circuit_fidelity(&small, 4);
        let f_large = model.circuit_fidelity(&large, 4);
        assert!(f_small > f_large);
        assert!(f_small > 0.0 && f_small < 1.0);
    }

    #[test]
    fn fidelity_decreases_with_measured_qubits() {
        let m = metrics_of(&[Gate::canonical(0, 1, 0.0, 0.0, 0.3)], 8);
        let model = NoiseModel::from_device(&Device::montreal());
        assert!(model.circuit_fidelity(&m, 2) > model.circuit_fidelity(&m, 8));
    }

    #[test]
    fn noisy_expectation_shrinks_towards_zero() {
        let m = metrics_of(
            &(0..10)
                .map(|i| Gate::canonical(i, i + 1, 0.0, 0.0, 0.3))
                .collect::<Vec<_>>(),
            11,
        );
        let model = NoiseModel::from_device(&Device::montreal());
        let noisy = model.noisy_expectation(-5.0, &m, 11);
        assert!(noisy > -5.0 && noisy < 0.0);
    }

    #[test]
    fn target_noise_model_matches_average_model_on_uniform_targets() {
        // On a uniform target the per-channel gate factor must equal the
        // device-average (1−e₂)^G₂·(1−e₁)^(2·G₂) accounting for a schedule
        // with no explicit single-qubit gates.
        let device = Device::montreal();
        let gates = vec![
            Gate::canonical(0, 1, 0.0, 0.0, 0.3),
            Gate::swap(1, 2),
            Gate::canonical(1, 4, 0.0, 0.0, 0.2),
        ];
        let s = ScheduledCircuit::asap_from_gates(27, &gates);
        let m = HardwareMetrics::of(&s, TwoQubitBasis::Cnot.cost_model());
        let model = TargetNoiseModel::from_device(&device);
        let timeline = Timeline::schedule(&s, |_| 0.0);
        let b = model.breakdown(&s, &timeline, &[]);
        let c = device.calibration();
        let expected = c
            .two_qubit_fidelity()
            .powi(m.hardware_two_qubit_count as i32)
            * c.single_qubit_fidelity()
                .powi(2 * m.hardware_two_qubit_count as i32);
        assert!((b.gate - expected).abs() < 1e-12);
        assert_eq!(b.idle, 1.0, "zero-duration timeline has no idle decay");
        assert_eq!(b.readout, 1.0, "no measured qubits");
    }

    #[test]
    fn per_edge_errors_differentiate_otherwise_identical_circuits() {
        let device = Device::montreal().with_heterogeneous_calibration(5);
        let target = device.target();
        // Find the best and worst calibrated edges.
        let mut edges: Vec<(usize, usize)> = target.edges().to_vec();
        edges.sort_by(|&(a, b), &(c, d)| {
            target
                .two_qubit_error(a, b)
                .total_cmp(&target.two_qubit_error(c, d))
        });
        let (good, bad) = (edges[0], edges[edges.len() - 1]);
        let model = TargetNoiseModel::from_device(&device);
        let esp_on = |(a, b): (usize, usize)| {
            let s = ScheduledCircuit::asap_from_gates(27, &[Gate::canonical(a, b, 0.0, 0.0, 0.3)]);
            let t = Timeline::schedule(&s, |_| 100.0);
            model.esp(&s, &t, &[a, b])
        };
        assert!(
            esp_on(good) > esp_on(bad),
            "the same gate must be likelier to succeed on the better edge"
        );
    }

    #[test]
    fn esp_layers_compounds_gate_and_idle_but_not_readout() {
        let b = EspBreakdown {
            gate: 0.9,
            idle: 0.8,
            readout: 0.7,
        };
        assert!((b.esp() - 0.9 * 0.8 * 0.7).abs() < 1e-12);
        assert!((b.esp_layers(1) - b.esp()).abs() < 1e-12);
        assert!((b.esp_layers(3) - (0.9f64 * 0.8).powi(3) * 0.7).abs() < 1e-12);
    }

    #[test]
    fn idle_time_decay_uses_per_qubit_coherence() {
        let device = Device::montreal();
        let model = TargetNoiseModel::from_device(&device);
        // Two parallel gates, one much slower: the fast pair idles.
        let gates = vec![
            Gate::canonical(0, 1, 0.0, 0.0, 0.3),
            Gate::canonical(4, 7, 0.0, 0.0, 0.3),
        ];
        let s = ScheduledCircuit::asap_from_gates(27, &gates);
        let slow = Timeline::schedule(&s, |g| {
            if g.qubit_pair() == (0, 1) {
                50_000.0
            } else {
                400.0
            }
        });
        let fast = Timeline::schedule(&s, |_| 400.0);
        let b_slow = model.breakdown(&s, &slow, &[]);
        let b_fast = model.breakdown(&s, &fast, &[]);
        assert!(b_slow.idle < b_fast.idle);
        assert_eq!(b_slow.gate, b_fast.gate, "gate factor ignores durations");
    }

    #[test]
    fn calibration_accessors() {
        let model = NoiseModel {
            calibration: Calibration::montreal_october_2021(),
        };
        assert!((model.two_qubit_error() - 0.01241).abs() < 1e-12);
        assert!((model.readout_error() - 0.01832).abs() < 1e-12);
    }
}
