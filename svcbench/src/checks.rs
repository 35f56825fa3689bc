//! Correctness checks and independent quality scoring of compiled
//! artifacts.  Everything here runs outside the timed regions.

use twoqan::decompose::timeline_with_target;
use twoqan::mapping::{mapping_cost, QubitMap};
use twoqan::pipeline::{CompiledOutput, Compiler};
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_graphs::QapProblem;
use twoqan_service::{CompileService, ServiceConfig};
use twoqan_sim::TargetNoiseModel;
use twoqan_verify::{check_structural, verify_output, EquivalenceChecker};

use crate::inputs::{Family, Topology};
use crate::COMPILER;

/// Largest instance the statevector gate compiles.
pub const STATEVECTOR_QUBITS: usize = 10;

/// Output quality of one artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Inserted SWAPs (plain and dressed).
    pub swaps: f64,
    /// Hardware two-qubit gates in the native basis.
    pub twoq_gates: f64,
    /// Hardware two-qubit depth.
    pub twoq_depth: f64,
    /// Makespan of the calibrated timeline, µs.
    pub duration_us: f64,
    /// −log10 of the estimated success probability.
    pub log10_inv_esp: f64,
}

/// Scores an artifact on its device, independently of the compiler's own
/// ranking estimator: the per-channel `TargetNoiseModel` of `twoqan-sim`
/// over the calibrated `timeline_with_target` timeline, measuring every
/// qubit the timeline touches.  The gate, idle and read-out factors are
/// summed in log10 separately, so large circuits cannot underflow.
///
/// # Errors
///
/// A factor outside `(0, 1]`.
pub fn score(output: &CompiledOutput, device: &Device) -> Result<Quality, String> {
    let schedule = &output.hardware_circuit;
    let target = device.target();
    let timeline = timeline_with_target(schedule, output.basis, target);
    let factors = TargetNoiseModel::new(target, output.basis.cost_model()).breakdown(
        schedule,
        &timeline,
        &timeline.used_qubits(),
    );
    let mut log10_esp = 0.0;
    for (name, f) in [
        ("gate", factors.gate),
        ("idle", factors.idle),
        ("readout", factors.readout),
    ] {
        if !(f > 0.0 && f <= 1.0) {
            return Err(format!("{name} success factor {f} is outside (0, 1]"));
        }
        log10_esp += f.log10();
    }
    let m = &output.metrics;
    Ok(Quality {
        swaps: m.swap_count as f64,
        twoq_gates: m.hardware_two_qubit_count as f64,
        twoq_depth: m.hardware_two_qubit_depth as f64,
        duration_us: timeline.total_ns() / 1e3,
        log10_inv_esp: -log10_esp,
    })
}

/// Running sums of [`Quality`] over a fixed set of artifacts.
#[derive(Debug, Clone, Copy, Default)]
pub struct QualitySums {
    count: usize,
    sums: [f64; 5],
}

impl QualitySums {
    /// Adds one artifact.
    pub fn add(&mut self, q: &Quality) {
        self.count += 1;
        for (s, v) in self.sums.iter_mut().zip([
            q.swaps,
            q.twoq_gates,
            q.twoq_depth,
            q.duration_us,
            q.log10_inv_esp,
        ]) {
            *s += v;
        }
    }

    /// Number of artifacts added.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The means, in [`Quality`] field order.
    pub fn means(&self) -> Quality {
        let n = self.count.max(1) as f64;
        Quality {
            swaps: self.sums[0] / n,
            twoq_gates: self.sums[1] / n,
            twoq_depth: self.sums[2] / n,
            duration_us: self.sums[3] / n,
            log10_inv_esp: self.sums[4] / n,
        }
    }
}

/// Structural validity of an artifact against its unified input and its
/// device: connectivity, moments, and gate accounting.
///
/// # Errors
///
/// The first violated invariant.
pub fn structural(
    output: &CompiledOutput,
    unified: &Circuit,
    device: &Device,
) -> Result<(), String> {
    check_structural(&output.hardware_circuit, unified, Some(device))
        .map(|_| ())
        .map_err(|e| format!("structural check: {e}"))
}

/// A logical placement's QAP cost on `device` under both cost models: hop
/// count and calibration-weighted.
pub fn placement_costs(placement: &[usize], unified: &Circuit, device: &Device) -> (f64, f64) {
    let m = device.num_qubits();
    let hop = mapping_cost(&QubitMap::from_assignment(placement, m), unified, device);
    // Pad to a full permutation; the padding carries no flow.
    let mut used = vec![false; m];
    for &p in placement {
        used[p] = true;
    }
    let mut padded = placement.to_vec();
    padded.extend((0..m).filter(|&p| !used[p]));
    let weighted = QapProblem::from_interactions_weighted(
        m,
        &unified.interaction_pairs(),
        device.weighted_distances(),
    )
    .cost(&padded);
    (hop, weighted)
}

/// The warm-start rule: a warm placement never loses to its seed under
/// both the hop-count and the weighted QAP cost on the current snapshot
/// (the warm solver keeps its seed's quality under the cost model its
/// winning candidate optimised).
///
/// # Errors
///
/// Both costs worse than the seed's.
pub fn never_worse(
    seed: &[usize],
    warm: &[usize],
    unified: &Circuit,
    device: &Device,
) -> Result<(), String> {
    let (seed_hop, seed_weighted) = placement_costs(seed, unified, device);
    let (warm_hop, warm_weighted) = placement_costs(warm, unified, device);
    let slack = 1.0 + 1e-9;
    if warm_hop > seed_hop * slack && warm_weighted > seed_weighted * slack {
        return Err(format!(
            "warm placement lost to its seed under both cost models \
             (hop {warm_hop} vs {seed_hop}, weighted {warm_weighted} vs {seed_weighted})"
        ));
    }
    Ok(())
}

/// The statevector gate: one instance of [`STATEVECTOR_QUBITS`] qubits per
/// family, compiled by the service's `2QAN-noise` onto a heterogeneous
/// snapshot of `topology`, must pass the full `verify_output` battery
/// (structure plus permutation-aware statevector equivalence).
///
/// # Errors
///
/// The first family whose artifact fails.
pub fn statevector_gate(
    families: &[Family],
    topology: Topology,
    compiler: &dyn Compiler,
    seed: u64,
) -> Result<(), String> {
    let service = CompileService::new(ServiceConfig::default());
    let device = topology.snapshot(seed);
    let checker = EquivalenceChecker::default();
    for (k, family) in families.iter().enumerate() {
        let circuit = family.circuit(STATEVECTOR_QUBITS, seed.wrapping_add(k as u64));
        let response = service
            .request(COMPILER, &circuit, &device)
            .map_err(|e| format!("{}: compile failed: {e}", family.name()))?;
        verify_output(compiler, &circuit, &response.output, &device, &checker)
            .outcome
            .map_err(|e| format!("{}: {e}", family.name()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_baselines::CompilerRegistry;

    #[test]
    fn quality_sums_average_each_field() {
        let mut s = QualitySums::default();
        let q = |x: f64| Quality {
            swaps: x,
            twoq_gates: 2.0 * x,
            twoq_depth: 3.0 * x,
            duration_us: 4.0 * x,
            log10_inv_esp: 5.0 * x,
        };
        s.add(&q(1.0));
        s.add(&q(3.0));
        assert_eq!(s.count(), 2);
        assert_eq!(s.means(), q(2.0));
    }

    #[test]
    fn a_small_compile_scores_and_passes_every_check() {
        let compiler = CompilerRegistry::by_name(COMPILER).unwrap();
        let circuit = Family::NnnHeisenberg.circuit(8, 3);
        let device = Topology::Grid9x9.snapshot(4);
        let out = compiler.compile(&circuit, &device).unwrap();
        let unified = circuit.unify_same_pair_gates();
        structural(&out, &unified, &device).unwrap();
        never_worse(
            &out.initial_placement,
            &out.initial_placement,
            &unified,
            &device,
        )
        .unwrap();
        let q = score(&out, &device).unwrap();
        assert!(q.log10_inv_esp > 0.0 && q.duration_us > 0.0);
        assert_eq!(q.swaps, out.metrics.swap_count as f64);
        statevector_gate(
            &[Family::NnnHeisenberg],
            Topology::Grid9x9,
            compiler.as_ref(),
            5,
        )
        .unwrap();
    }

    #[test]
    fn a_worse_placement_fails_the_warm_rule() {
        let compiler = CompilerRegistry::by_name(COMPILER).unwrap();
        let circuit = Family::NnnHeisenberg.circuit(12, 3);
        let device = Topology::Grid9x9.snapshot(4);
        let out = compiler.compile(&circuit, &device).unwrap();
        let unified = circuit.unify_same_pair_gates();
        // Spread the logical qubits over the far corners of the grid.
        let spread: Vec<usize> = (0..12).map(|i| (i * 7) % 81).collect();
        assert!(never_worse(&out.initial_placement, &spread, &unified, &device).is_err());
    }
}
