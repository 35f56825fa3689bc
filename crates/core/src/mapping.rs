//! Initial qubit mapping (§III-A of the paper).
//!
//! Qubit mapping is formulated as a Quadratic Assignment Problem: circuit
//! qubits are facilities, hardware qubits are locations, the flow between
//! two circuit qubits is their number of two-qubit gates and the distance is
//! the hardware shortest-path distance (Eq. 7).  The paper solves the QAP
//! with Tabu search; simulated annealing and a trivial identity placement
//! are provided as alternatives.
//!
//! The paper notes that QAP-based initial placement is particularly
//! effective for 2-local Hamiltonian simulation because *any* operator that
//! is nearest-neighbour in some map can be scheduled directly, regardless of
//! its position in the circuit — there is no gate-order dependence eroding
//! the benefit of a good initial placement.
//!
//! [`initial_mapping`] is the module's one entry point.  It takes the whole
//! [`MappingConfig`] — strategy, solver parameters, cost model and an
//! optional warm seed — plus a cooperative [`SolverBudget`]
//! ([`SolverBudget::unlimited`] when there is no deadline), and forwards
//! them to the matching `twoqan_graphs` solver.

use crate::budget::SolverBudget;
use crate::error::CompileError;
use rand::Rng;
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_graphs::{simulated_annealing, tabu_search, AnnealingConfig, QapProblem, TabuConfig};

/// The distance cost model the mapping and routing passes optimise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// Unit hop counts (Eq. 7 of the paper): every device edge costs the
    /// same, so the passes minimise SWAP counts only.
    #[default]
    HopCount,
    /// Calibration-aware: device edges cost their normalised −log-fidelity
    /// weight (see `Target::edge_weight`), so the passes steer qubits onto
    /// the device's low-error regions.  With a uniform target every edge
    /// weight is exactly 1 and this degenerates to [`CostModel::HopCount`]
    /// bit for bit.
    CalibrationAware,
}

/// Full configuration of the mapping pass: the strategy plus the solver
/// parameters, so callers (and benches) can tune mapping effort instead of
/// relying on the solvers' hard-coded defaults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MappingConfig {
    /// Which solver finds the placement.
    pub strategy: InitialMappingStrategy,
    /// Tabu-search parameters (used when `strategy` is
    /// [`InitialMappingStrategy::TabuSearch`]).
    pub tabu: TabuConfig,
    /// Simulated-annealing parameters (used when `strategy` is
    /// [`InitialMappingStrategy::SimulatedAnnealing`]).
    pub annealing: AnnealingConfig,
    /// The QAP distance matrix flavour: hop counts or calibration-weighted
    /// −log-fidelity path costs.
    pub cost: CostModel,
    /// Optional warm-start placement (`logical → physical`, one entry per
    /// circuit qubit) retained from a previous compile of the same circuit.
    /// When set and valid for the target device, restart slot 0 of the QAP
    /// solver starts from this placement instead of a random one — the
    /// solvers guarantee the result is never worse than the seed itself.
    /// An invalid seed (wrong length, duplicate or out-of-range physical
    /// qubits — e.g. after a device change) silently falls back to the
    /// cold multi-start.
    pub warm_start: Option<Vec<usize>>,
}

/// A bidirectional mapping between circuit (logical) qubits and hardware
/// (physical) qubits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QubitMap {
    logical_to_physical: Vec<usize>,
    physical_to_logical: Vec<Option<usize>>,
}

impl QubitMap {
    /// Builds a map from a `logical → physical` assignment over a device
    /// with `num_physical` qubits.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not injective or out of range.
    pub fn from_assignment(assignment: &[usize], num_physical: usize) -> Self {
        let mut physical_to_logical = vec![None; num_physical];
        for (logical, &physical) in assignment.iter().enumerate() {
            assert!(
                physical < num_physical,
                "physical qubit {physical} out of range"
            );
            assert!(
                physical_to_logical[physical].is_none(),
                "physical qubit {physical} assigned twice"
            );
            physical_to_logical[physical] = Some(logical);
        }
        Self {
            logical_to_physical: assignment.to_vec(),
            physical_to_logical,
        }
    }

    /// The identity map on `n` logical qubits over `num_physical ≥ n`
    /// hardware qubits.
    pub fn identity(n: usize, num_physical: usize) -> Self {
        Self::from_assignment(&(0..n).collect::<Vec<_>>(), num_physical)
    }

    /// Number of logical qubits.
    pub fn num_logical(&self) -> usize {
        self.logical_to_physical.len()
    }

    /// Number of physical qubits.
    pub fn num_physical(&self) -> usize {
        self.physical_to_logical.len()
    }

    /// Physical qubit hosting a logical qubit.
    pub fn physical(&self, logical: usize) -> usize {
        self.logical_to_physical[logical]
    }

    /// Logical qubit currently hosted on a physical qubit (if any).
    pub fn logical(&self, physical: usize) -> Option<usize> {
        self.physical_to_logical[physical]
    }

    /// The full `logical → physical` assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.logical_to_physical
    }

    /// Applies a SWAP of two physical qubits, exchanging whatever logical
    /// qubits they host (either may be unoccupied).
    pub fn apply_physical_swap(&mut self, a: usize, b: usize) {
        let la = self.physical_to_logical[a];
        let lb = self.physical_to_logical[b];
        self.physical_to_logical[a] = lb;
        self.physical_to_logical[b] = la;
        if let Some(l) = la {
            self.logical_to_physical[l] = b;
        }
        if let Some(l) = lb {
            self.logical_to_physical[l] = a;
        }
    }

    /// Hardware distance between the physical images of two logical qubits.
    pub fn logical_distance(&self, device: &Device, u: usize, v: usize) -> u32 {
        device.distance(self.physical(u), self.physical(v))
    }

    /// Returns `true` if two logical qubits sit on adjacent hardware qubits.
    pub fn logically_adjacent(&self, device: &Device, u: usize, v: usize) -> bool {
        device.are_adjacent(self.physical(u), self.physical(v))
    }
}

/// Strategy used to find the initial placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialMappingStrategy {
    /// QAP + Tabu search (the paper's choice).
    #[default]
    TabuSearch,
    /// QAP + simulated annealing (the alternative mentioned in §III-A).
    SimulatedAnnealing,
    /// The identity placement (logical qubit `i` on physical qubit `i`).
    Trivial,
}

/// Finds an initial qubit placement for `circuit` on `device` with the
/// strategy and solver parameters of `config`, under a cooperative budget.
///
/// Under a limited budget the QAP solvers stop at their next sweep boundary
/// and return their best-so-far placement — the result is always a valid
/// placement (anytime semantics), never an expiry error.  Pass
/// [`SolverBudget::unlimited`] for an unbounded search; it never reads the
/// clock.
///
/// # Errors
///
/// Returns [`CompileError::TooManyQubits`] if the circuit does not fit on
/// the device.
pub fn initial_mapping<R: Rng + ?Sized>(
    circuit: &Circuit,
    device: &Device,
    config: &MappingConfig,
    budget: &SolverBudget,
    rng: &mut R,
) -> Result<QubitMap, CompileError> {
    let n = circuit.num_qubits();
    let m = device.num_qubits();
    if n > m {
        return Err(CompileError::TooManyQubits {
            circuit: n,
            device: m,
        });
    }
    // The QAP is padded with zero-flow dummy facilities up to the device
    // size so that the pairwise-exchange neighbourhoods of the solvers can
    // also move circuit qubits onto currently unused hardware qubits.
    let padded_qap = || match config.cost {
        CostModel::HopCount => {
            QapProblem::from_interactions(m, &circuit.interaction_pairs(), device.distances())
        }
        CostModel::CalibrationAware => QapProblem::from_interactions_weighted(
            m,
            &circuit.interaction_pairs(),
            device.weighted_distances(),
        ),
    };
    // A warm seed is usable only if it is a valid placement of *this*
    // circuit on *this* device; anything else (stale seed after a device
    // swap, wrong circuit) falls back to the cold multi-start silently —
    // warm-starting is an optimisation, never a correctness requirement.
    let warm = config
        .warm_start
        .as_deref()
        .and_then(|seed| pad_warm_seed(seed, n, m));
    let warm = warm.as_deref();
    let assignment = match config.strategy {
        InitialMappingStrategy::Trivial => return Ok(QubitMap::identity(n, m)),
        InitialMappingStrategy::TabuSearch => {
            tabu_search(&padded_qap(), &config.tabu, warm, budget, rng).assignment
        }
        InitialMappingStrategy::SimulatedAnnealing => {
            simulated_annealing(&padded_qap(), &config.annealing, warm, budget, rng).assignment
        }
    };
    Ok(QubitMap::from_assignment(&assignment[..n], m))
}

/// Extends a warm `logical → physical` seed over `n` circuit qubits to the
/// full `m`-facility padded QAP assignment (dummy facilities fill the unused
/// physical qubits in increasing order), or `None` if the seed is not a
/// valid injective placement of `n` qubits on an `m`-qubit device.
fn pad_warm_seed(seed: &[usize], n: usize, m: usize) -> Option<Vec<usize>> {
    if seed.len() != n {
        return None;
    }
    let mut used = vec![false; m];
    for &p in seed {
        if p >= m || used[p] {
            return None;
        }
        used[p] = true;
    }
    let mut assignment = seed.to_vec();
    assignment.extend((0..m).filter(|&p| !used[p]));
    Some(assignment)
}

/// The QAP cost (Eq. 7) of a mapping for a circuit on a device: the sum of
/// hardware distances over all two-qubit gates (each counted once).
pub fn mapping_cost(map: &QubitMap, circuit: &Circuit, device: &Device) -> f64 {
    circuit
        .interaction_pairs()
        .iter()
        .map(|&(u, v)| f64::from(map.logical_distance(device, u, v)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use twoqan_circuit::Gate;
    use twoqan_device::TwoQubitBasis;
    use twoqan_ham::{nnn_ising, trotter_step};

    /// Maps `circuit` with an unlimited budget.
    fn place(
        circuit: &Circuit,
        device: &Device,
        config: &MappingConfig,
        rng: &mut StdRng,
    ) -> Result<QubitMap, CompileError> {
        initial_mapping(circuit, device, config, &SolverBudget::unlimited(), rng)
    }

    /// Maps `circuit` with `strategy`'s default solver parameters.
    fn place_with(
        circuit: &Circuit,
        device: &Device,
        strategy: InitialMappingStrategy,
        rng: &mut StdRng,
    ) -> Result<QubitMap, CompileError> {
        place(
            circuit,
            device,
            &MappingConfig {
                strategy,
                ..MappingConfig::default()
            },
            rng,
        )
    }

    fn chain_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n - 1 {
            c.push(Gate::canonical(i, i + 1, 0.0, 0.0, 0.3));
        }
        c
    }

    #[test]
    fn qubit_map_roundtrip_and_swap() {
        let mut map = QubitMap::from_assignment(&[2, 0, 5], 6);
        assert_eq!(map.num_logical(), 3);
        assert_eq!(map.num_physical(), 6);
        assert_eq!(map.physical(0), 2);
        assert_eq!(map.logical(5), Some(2));
        assert_eq!(map.logical(1), None);
        map.apply_physical_swap(2, 1);
        assert_eq!(map.physical(0), 1);
        assert_eq!(map.logical(2), None);
        assert_eq!(map.logical(1), Some(0));
        // Swapping two empty physical qubits is a no-op on logical positions.
        map.apply_physical_swap(3, 4);
        assert_eq!(map.physical(0), 1);
    }

    #[test]
    fn tabu_mapping_places_chain_adjacently_on_grid() {
        let circuit = chain_circuit(6);
        let device = Device::grid(2, 3, TwoQubitBasis::Cnot);
        let mut rng = StdRng::seed_from_u64(13);
        let map = place_with(
            &circuit,
            &device,
            InitialMappingStrategy::TabuSearch,
            &mut rng,
        )
        .unwrap();
        // A 6-qubit chain embeds with every gate nearest-neighbour on a 2×3 grid.
        assert_eq!(mapping_cost(&map, &circuit, &device), 5.0);
    }

    #[test]
    fn annealing_and_trivial_strategies_work() {
        let circuit = chain_circuit(5);
        let device = Device::linear(8, TwoQubitBasis::Cnot);
        let mut rng = StdRng::seed_from_u64(3);
        let sa = place_with(
            &circuit,
            &device,
            InitialMappingStrategy::SimulatedAnnealing,
            &mut rng,
        )
        .unwrap();
        // Simulated annealing is a heuristic: it should get close to the
        // optimal cost of 4 (every chain gate adjacent) but is not required
        // to hit it exactly.
        let sa_cost = mapping_cost(&sa, &circuit, &device);
        assert!(
            (4.0..=6.0).contains(&sa_cost),
            "unexpected SA cost {sa_cost}"
        );
        let trivial =
            place_with(&circuit, &device, InitialMappingStrategy::Trivial, &mut rng).unwrap();
        assert_eq!(mapping_cost(&trivial, &circuit, &device), 4.0);
    }

    #[test]
    fn tuned_mapping_configs_are_honoured() {
        let circuit = chain_circuit(6);
        let device = Device::grid(2, 3, TwoQubitBasis::Cnot);
        // A deliberately tiny Tabu budget still yields a valid placement.
        let cheap = MappingConfig {
            strategy: InitialMappingStrategy::TabuSearch,
            tabu: TabuConfig {
                max_iterations: 2,
                restarts: 1,
                ..TabuConfig::default()
            },
            ..MappingConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(13);
        let map = place(&circuit, &device, &cheap, &mut rng).unwrap();
        assert_eq!(map.num_logical(), 6);
        // A generous budget reaches the optimum.
        let thorough = MappingConfig {
            strategy: InitialMappingStrategy::TabuSearch,
            tabu: TabuConfig {
                restarts: 4,
                ..TabuConfig::default()
            },
            ..MappingConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(13);
        let map = place(&circuit, &device, &thorough, &mut rng).unwrap();
        assert_eq!(mapping_cost(&map, &circuit, &device), 5.0);
        // Annealing restarts plumb through as well.
        let sa = MappingConfig {
            strategy: InitialMappingStrategy::SimulatedAnnealing,
            annealing: AnnealingConfig {
                restarts: 3,
                ..AnnealingConfig::default()
            },
            ..MappingConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(13);
        let map = place(&circuit, &device, &sa, &mut rng).unwrap();
        assert!(mapping_cost(&map, &circuit, &device) >= 5.0);
    }

    #[test]
    fn calibration_aware_mapping_matches_hop_count_on_uniform_targets() {
        let circuit = trotter_step(&nnn_ising(10, 5), 1.0);
        let device = Device::montreal();
        assert!(device.target().is_uniform());
        let hop = MappingConfig::default();
        let aware = MappingConfig {
            cost: CostModel::CalibrationAware,
            ..MappingConfig::default()
        };
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let a = place(&circuit, &device, &hop, &mut rng_a).unwrap();
        let b = place(&circuit, &device, &aware, &mut rng_b).unwrap();
        assert_eq!(a, b, "uniform target must reproduce the hop-count map");
    }

    #[test]
    fn calibration_aware_mapping_avoids_high_error_regions() {
        // A 6-qubit chain on a 12-qubit line whose right-hand edges are 20×
        // costlier: the weighted QAP must place the chain on the clean left.
        let circuit = chain_circuit(6);
        let device = Device::linear(12, TwoQubitBasis::Cnot);
        let weighted =
            twoqan_graphs::WeightedDistanceMatrix::dijkstra(device.topology(), &|a, b| {
                if a.max(b) >= 7 {
                    20.0
                } else {
                    1.0
                }
            });
        let qap = twoqan_graphs::QapProblem::from_interactions_weighted(
            12,
            &circuit.interaction_pairs(),
            &weighted,
        );
        let mut rng = StdRng::seed_from_u64(4);
        let result = tabu_search(
            &qap,
            &TabuConfig::default(),
            None,
            &SolverBudget::unlimited(),
            &mut rng,
        );
        // Every chain qubit must sit in the clean half (locations 0..=6).
        for &loc in &result.assignment[..6] {
            assert!(loc <= 6, "qubit placed on a poisoned edge region: {loc}");
        }
    }

    #[test]
    fn warm_seeded_mapping_never_loses_to_its_seed() {
        let circuit = trotter_step(&nnn_ising(12, 5), 1.0);
        let device = Device::grid(4, 4, TwoQubitBasis::Cnot);
        // A deliberately mediocre seed: the identity placement, run through
        // a single tiny-budget solver restart so there is no random-restart
        // luck to hide behind.
        let seed: Vec<usize> = (0..circuit.num_qubits()).collect();
        let seed_map = QubitMap::from_assignment(&seed, device.num_qubits());
        let seed_cost = mapping_cost(&seed_map, &circuit, &device);
        for strategy in [
            InitialMappingStrategy::TabuSearch,
            InitialMappingStrategy::SimulatedAnnealing,
        ] {
            let config = MappingConfig {
                strategy,
                tabu: TabuConfig {
                    max_iterations: 3,
                    restarts: 1,
                    ..TabuConfig::default()
                },
                annealing: AnnealingConfig {
                    restarts: 1,
                    moves_per_temperature: 4,
                    ..AnnealingConfig::default()
                },
                warm_start: Some(seed.clone()),
                ..MappingConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(99);
            let map = place(&circuit, &device, &config, &mut rng).unwrap();
            let cost = mapping_cost(&map, &circuit, &device);
            assert!(
                cost <= seed_cost,
                "{strategy:?}: warm result {cost} worse than its seed {seed_cost}"
            );
        }
    }

    #[test]
    fn invalid_warm_seeds_fall_back_to_the_cold_multi_start() {
        let circuit = chain_circuit(6);
        let device = Device::grid(2, 3, TwoQubitBasis::Cnot);
        let cold = MappingConfig::default();
        // Wrong length, out-of-range and duplicated physical qubits: each
        // must reproduce the cold compile bit for bit.
        for bad_seed in [
            vec![0, 1, 2],
            vec![0, 1, 2, 3, 4, 99],
            vec![0, 1, 2, 3, 4, 0],
        ] {
            let warm = MappingConfig {
                warm_start: Some(bad_seed),
                ..MappingConfig::default()
            };
            let mut rng_a = StdRng::seed_from_u64(13);
            let mut rng_b = StdRng::seed_from_u64(13);
            let a = place(&circuit, &device, &cold, &mut rng_a).unwrap();
            let b = place(&circuit, &device, &warm, &mut rng_b).unwrap();
            assert_eq!(a, b, "an unusable seed must not change the result");
        }
    }

    #[test]
    fn ising_model_maps_onto_montreal() {
        let circuit = trotter_step(&nnn_ising(10, 5), 1.0);
        let device = Device::montreal();
        let mut rng = StdRng::seed_from_u64(1);
        let map = place_with(
            &circuit,
            &device,
            InitialMappingStrategy::TabuSearch,
            &mut rng,
        )
        .unwrap();
        // NNN chains cannot be fully NN-embedded in a heavy-hex lattice, but
        // a good placement keeps the average distance small.
        let cost = mapping_cost(&map, &circuit, &device);
        let trivial_cost = mapping_cost(&QubitMap::identity(10, 27), &circuit, &device);
        assert!(cost <= trivial_cost);
        assert!(cost >= circuit.two_qubit_gate_count() as f64);
    }

    #[test]
    fn rejects_circuits_larger_than_device() {
        let circuit = chain_circuit(20);
        let device = Device::aspen();
        let mut rng = StdRng::seed_from_u64(0);
        let err = place_with(
            &circuit,
            &device,
            InitialMappingStrategy::TabuSearch,
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(
            err,
            CompileError::TooManyQubits {
                circuit: 20,
                device: 16
            }
        );
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn from_assignment_rejects_collisions() {
        let _ = QubitMap::from_assignment(&[1, 1], 3);
    }

    #[test]
    fn expired_budget_still_yields_a_valid_placement() {
        use std::time::Duration;
        let circuit = chain_circuit(8);
        let device = Device::grid(3, 3, TwoQubitBasis::Cnot);
        let budget = SolverBudget::with_deadline(Duration::ZERO);
        for strategy in [
            InitialMappingStrategy::TabuSearch,
            InitialMappingStrategy::SimulatedAnnealing,
            InitialMappingStrategy::Trivial,
        ] {
            let mut rng = StdRng::seed_from_u64(5);
            let map = initial_mapping(
                &circuit,
                &device,
                &MappingConfig {
                    strategy,
                    ..MappingConfig::default()
                },
                &budget,
                &mut rng,
            )
            .unwrap();
            assert_eq!(map.num_logical(), 8, "{strategy:?}");
            assert_eq!(map.num_physical(), 9, "{strategy:?}");
        }
    }
}
