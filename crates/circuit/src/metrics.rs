//! Hardware-level metrics of scheduled circuits.
//!
//! The paper compares compilers on four metrics (§IV "Metrics"): the number
//! of inserted SWAPs, the number of hardware two-qubit gates after
//! decomposition, the two-qubit-gate depth, and the depth of all gates, plus
//! the *overhead* of each quantity relative to the connectivity-unconstrained
//! ("NoMap") baseline.  [`HardwareMetrics`] computes the first group from a
//! scheduled circuit and a native-basis cost model; the benchmark harness
//! forms the overheads and their ratios from two such records.

use crate::gate::GateKind;
use crate::moment::ScheduledCircuit;
use twoqan_math::cost::TwoQubitBasisCost;

/// Gate counts and depths of a scheduled circuit after decomposing every
/// two-qubit unitary into a native two-qubit basis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareMetrics {
    /// Native two-qubit basis used for decomposition.
    pub basis: TwoQubitBasisCost,
    /// Number of inserted routing SWAPs (plain + dressed).
    pub swap_count: usize,
    /// Number of those SWAPs that were merged with a circuit gate
    /// ("2QAN dressed" in the paper's plots).
    pub dressed_swap_count: usize,
    /// Number of two-qubit operations at the application level (circuit
    /// unitaries + SWAPs + dressed SWAPs).
    pub application_two_qubit_count: usize,
    /// Number of native two-qubit gates after decomposition
    /// (# CNOTs / # SYCs / # iSWAPs / # CZs in the paper's plots).
    pub hardware_two_qubit_count: usize,
    /// Depth counting only native two-qubit gates.
    pub hardware_two_qubit_depth: usize,
    /// Depth at the application level (moments containing a two-qubit gate).
    pub application_two_qubit_depth: usize,
    /// Estimated depth of all gates (native two-qubit gates interleaved with
    /// single-qubit layers).
    pub total_depth_estimate: usize,
    /// Number of single-qubit gates present in the circuit before
    /// decomposition.
    pub explicit_single_qubit_count: usize,
    /// Wall-clock duration of the schedule in nanoseconds under the target
    /// device's calibrated gate durations (the [`Timeline`] makespan).
    /// `0.0` when the metrics were computed without a device target — the
    /// cycle-only [`HardwareMetrics::of`] path.
    ///
    /// [`Timeline`]: crate::timeline::Timeline
    pub duration_ns: f64,
}

impl HardwareMetrics {
    /// Computes the metrics of a scheduled circuit for a native basis.
    pub fn of(schedule: &ScheduledCircuit, basis: TwoQubitBasisCost) -> Self {
        let mut swap_count = 0usize;
        let mut dressed_swap_count = 0usize;
        let mut application_two_qubit_count = 0usize;
        let mut hardware_two_qubit_count = 0usize;
        let mut explicit_single_qubit_count = 0usize;
        let mut hardware_two_qubit_depth = 0usize;
        let mut application_two_qubit_depth = 0usize;
        let mut total_depth_estimate = 0usize;

        for moment in schedule.moments() {
            let mut moment_max_cost = 0usize;
            let mut moment_has_two_qubit = false;
            let mut moment_total_layers = 0usize;
            for gate in moment.gates() {
                match gate.kind {
                    GateKind::Swap => {
                        swap_count += 1;
                    }
                    GateKind::DressedSwap { .. } => {
                        swap_count += 1;
                        dressed_swap_count += 1;
                    }
                    _ => {}
                }
                if gate.is_two_qubit() {
                    let cost = gate.kind.hardware_two_qubit_cost(basis);
                    application_two_qubit_count += 1;
                    hardware_two_qubit_count += cost;
                    moment_max_cost = moment_max_cost.max(cost);
                    moment_has_two_qubit = true;
                    // k native gates interleaved with k+1 single-qubit layers.
                    moment_total_layers = moment_total_layers.max(2 * cost + 1);
                } else {
                    explicit_single_qubit_count += 1;
                    moment_total_layers = moment_total_layers.max(1);
                }
            }
            hardware_two_qubit_depth += moment_max_cost;
            if moment_has_two_qubit {
                application_two_qubit_depth += 1;
            }
            total_depth_estimate += moment_total_layers;
        }

        Self {
            basis,
            swap_count,
            dressed_swap_count,
            application_two_qubit_count,
            hardware_two_qubit_count,
            hardware_two_qubit_depth,
            application_two_qubit_depth,
            total_depth_estimate,
            explicit_single_qubit_count,
            duration_ns: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::moment::ScheduledCircuit;

    fn schedule(gates: &[Gate], n: usize) -> ScheduledCircuit {
        ScheduledCircuit::asap_from_gates(n, gates)
    }

    #[test]
    fn counts_zz_terms_as_two_cnots_each() {
        let gates = vec![
            Gate::canonical(0, 1, 0.0, 0.0, 0.3),
            Gate::canonical(2, 3, 0.0, 0.0, 0.3),
            Gate::canonical(1, 2, 0.0, 0.0, 0.3),
        ];
        let m = HardwareMetrics::of(&schedule(&gates, 4), TwoQubitBasisCost::Cnot);
        assert_eq!(m.application_two_qubit_count, 3);
        assert_eq!(m.hardware_two_qubit_count, 6);
        assert_eq!(m.swap_count, 0);
        // Two moments: {(0,1),(2,3)} then {(1,2)} → hardware 2q depth 2+2.
        assert_eq!(m.application_two_qubit_depth, 2);
        assert_eq!(m.hardware_two_qubit_depth, 4);
    }

    #[test]
    fn dressed_swaps_count_as_swaps_and_cost_three() {
        let gates = vec![
            Gate::two(
                GateKind::DressedSwap {
                    xx: 0.0,
                    yy: 0.0,
                    zz: 0.2,
                },
                0,
                1,
            ),
            Gate::swap(2, 3),
        ];
        let m = HardwareMetrics::of(&schedule(&gates, 4), TwoQubitBasisCost::Cnot);
        assert_eq!(m.swap_count, 2);
        assert_eq!(m.dressed_swap_count, 1);
        assert_eq!(m.hardware_two_qubit_count, 6);
        assert_eq!(m.hardware_two_qubit_depth, 3);
    }

    #[test]
    fn heisenberg_dressing_has_no_gate_overhead() {
        // A Heisenberg circuit gate costs 3; the dressed version also costs 3,
        // so merging a SWAP into it adds no hardware gates — the effect behind
        // the paper's "negligible overhead" entries.
        let plain = vec![Gate::canonical(0, 1, 0.3, 0.2, 0.1)];
        let dressed = vec![Gate::two(
            GateKind::DressedSwap {
                xx: 0.3,
                yy: 0.2,
                zz: 0.1,
            },
            0,
            1,
        )];
        let mp = HardwareMetrics::of(&schedule(&plain, 2), TwoQubitBasisCost::Syc);
        let md = HardwareMetrics::of(&schedule(&dressed, 2), TwoQubitBasisCost::Syc);
        assert_eq!(mp.hardware_two_qubit_count, md.hardware_two_qubit_count);
        assert_eq!((mp.swap_count, md.swap_count), (0, 1));
    }

    #[test]
    fn single_qubit_gates_enter_total_depth_only() {
        let gates = vec![
            Gate::single(GateKind::Rx(0.3), 0),
            Gate::canonical(0, 1, 0.0, 0.0, 0.2),
        ];
        let m = HardwareMetrics::of(&schedule(&gates, 2), TwoQubitBasisCost::Cnot);
        assert_eq!(m.explicit_single_qubit_count, 1);
        assert_eq!(m.hardware_two_qubit_count, 2);
        assert_eq!(m.hardware_two_qubit_depth, 2);
        // Moment 1 (rx): 1 layer; moment 2 (ZZ): 2·2+1 = 5 layers.
        assert_eq!(m.total_depth_estimate, 6);
    }

    #[test]
    fn empty_schedule_has_zero_metrics() {
        let m = HardwareMetrics::of(&ScheduledCircuit::new(3), TwoQubitBasisCost::Cz);
        assert_eq!(m.hardware_two_qubit_count, 0);
        assert_eq!(m.swap_count, 0);
        assert_eq!(m.total_depth_estimate, 0);
    }
}
