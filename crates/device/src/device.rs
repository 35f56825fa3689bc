//! The [`Device`] type: a coupling topology, a native gate set and
//! calibration data.

use crate::calibration::Calibration;
use crate::error::DeviceError;
use crate::gateset::{GateSet, TwoQubitBasis};
use crate::target::Target;
use crate::topologies;
use std::sync::OnceLock;
use twoqan_graphs::{DistanceMatrix, Graph, WeightedDistanceMatrix};

/// The device's lazily computed all-pairs distance matrices: the hop-count
/// matrix (one BFS per vertex) and the calibration-weighted matrix (one
/// Dijkstra per vertex over −log-fidelity edge weights).  Both flavours
/// share the single [`DistanceCaches::cached`] code path, so "compute once
/// on first use, serve the cached reference afterwards" is written exactly
/// once.
#[derive(Debug, Clone, Default)]
struct DistanceCaches {
    hop: OnceLock<DistanceMatrix>,
    weighted: OnceLock<WeightedDistanceMatrix>,
}

impl DistanceCaches {
    /// The one lazily-cached code path both matrix flavours go through.
    #[inline]
    fn cached<T>(slot: &OnceLock<T>, build: impl FnOnce() -> T) -> &T {
        slot.get_or_init(build)
    }

    fn hop(&self, topology: &Graph) -> &DistanceMatrix {
        Self::cached(&self.hop, || DistanceMatrix::bfs(topology))
    }

    fn weighted(&self, topology: &Graph, target: &Target) -> &WeightedDistanceMatrix {
        Self::cached(&self.weighted, || {
            WeightedDistanceMatrix::dijkstra(topology, &|a, b| target.edge_weight(a, b))
        })
    }

    /// Drops the calibration-weighted matrix (called whenever the target
    /// changes); the hop matrix only depends on the topology and survives.
    fn invalidate_weighted(&mut self) {
        self.weighted = OnceLock::new();
    }
}

/// A quantum device model the compiler can target.
///
/// # Example
///
/// ```
/// use twoqan_device::{Device, TwoQubitBasis};
///
/// let montreal = Device::montreal();
/// assert_eq!(montreal.num_qubits(), 27);
/// assert_eq!(montreal.default_basis(), TwoQubitBasis::Cnot);
/// assert!(montreal.are_adjacent(0, 1));
/// assert!(!montreal.are_adjacent(0, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    name: String,
    topology: Graph,
    /// Lazily computed hop-count and calibration-weighted distance
    /// matrices, cached for the lifetime of the device.
    distances: DistanceCaches,
    gate_set: GateSet,
    calibration: Calibration,
    /// Per-qubit / per-edge calibration; a uniform replication of
    /// `calibration` unless overridden.
    target: Target,
}

impl Device {
    /// Builds a device from an arbitrary topology, validating the inputs:
    /// the topology must be connected (routing requires a path between
    /// every qubit pair) and every calibration figure must be in its
    /// physical range (see [`Calibration::validate`]).
    pub fn try_from_topology(
        name: impl Into<String>,
        topology: Graph,
        gate_set: GateSet,
        calibration: Calibration,
    ) -> Result<Self, DeviceError> {
        let name = name.into();
        if !topology.is_connected() {
            return Err(DeviceError::DisconnectedTopology { name });
        }
        calibration.validate()?;
        let target = Target::uniform(&topology, &calibration);
        Ok(Self {
            name,
            topology,
            distances: DistanceCaches::default(),
            gate_set,
            calibration,
            target,
        })
    }

    /// Builds a device from an arbitrary topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not connected or the calibration is out of
    /// range (see [`Device::try_from_topology`] for the non-panicking
    /// variant).
    pub fn from_topology(
        name: impl Into<String>,
        topology: Graph,
        gate_set: GateSet,
        calibration: Calibration,
    ) -> Self {
        Self::try_from_topology(name, topology, gate_set, calibration)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The Google Sycamore device (54 qubits, SYC native gate, CZ also
    /// supported).
    pub fn sycamore() -> Self {
        Self::from_topology(
            "Sycamore",
            topologies::sycamore_graph(),
            GateSet {
                bases: vec![TwoQubitBasis::Syc, TwoQubitBasis::Cz],
            },
            Calibration::sycamore_typical(),
        )
    }

    /// The IBMQ Montreal device (27 qubits, heavy-hex lattice, CNOT native
    /// gate), with the calibration reported in the paper.
    pub fn montreal() -> Self {
        Self::from_topology(
            "Montreal",
            topologies::montreal_graph(),
            GateSet::single(TwoQubitBasis::Cnot),
            Calibration::montreal_october_2021(),
        )
    }

    /// The Rigetti Aspen device (16 qubits, two octagons, iSWAP native gate,
    /// CZ also supported).
    pub fn aspen() -> Self {
        Self::from_topology(
            "Aspen",
            topologies::aspen_graph(),
            GateSet {
                bases: vec![TwoQubitBasis::ISwap, TwoQubitBasis::Cz],
            },
            Calibration::aspen_typical(),
        )
    }

    /// A `rows × cols` grid device with the given native basis (the Fig. 3
    /// walk-through uses a 2 × 3 grid).
    pub fn grid(rows: usize, cols: usize, basis: TwoQubitBasis) -> Self {
        Self::from_topology(
            format!("grid-{rows}x{cols}"),
            Graph::grid(rows, cols),
            GateSet::single(basis),
            Calibration::default(),
        )
    }

    /// A linear chain of `n` qubits with the given native basis.
    pub fn linear(n: usize, basis: TwoQubitBasis) -> Self {
        Self::from_topology(
            format!("line-{n}"),
            Graph::path(n),
            GateSet::single(basis),
            Calibration::default(),
        )
    }

    /// A fully-connected device (used for the "NoMap" baseline and the
    /// all-to-all rows of Table III).
    pub fn all_to_all(n: usize, basis: TwoQubitBasis) -> Self {
        Self::from_topology(
            format!("all-to-all-{n}"),
            Graph::complete(n),
            GateSet::single(basis),
            Calibration::noiseless(),
        )
    }

    /// Returns a copy of this device with a different decomposition basis
    /// (used for the appendix CZ experiments on Sycamore and Aspen).
    ///
    /// # Panics
    ///
    /// Panics if the device's gate set does not support `basis`.
    pub fn with_basis(&self, basis: TwoQubitBasis) -> Self {
        assert!(
            self.gate_set.supports(basis),
            "{} does not support the {} basis",
            self.name,
            basis
        );
        let mut d = self.clone();
        d.gate_set = GateSet {
            bases: std::iter::once(basis)
                .chain(self.gate_set.bases.iter().copied().filter(|&b| b != basis))
                .collect(),
        };
        d
    }

    /// Returns a copy with different calibration data (the target is reset
    /// to the uniform replication of the new averages), validating the new
    /// figures.
    pub fn try_with_calibration(&self, calibration: Calibration) -> Result<Self, DeviceError> {
        calibration.validate()?;
        let mut d = self.clone();
        d.calibration = calibration;
        d.target = Target::uniform(&d.topology, &calibration);
        d.distances.invalidate_weighted();
        Ok(d)
    }

    /// Returns a copy with an explicit per-qubit/per-edge [`Target`],
    /// validating that its size matches the topology and that every figure
    /// is in its physical range (see [`Target::validate`]).
    pub fn try_with_target(&self, target: Target) -> Result<Self, DeviceError> {
        if target.num_qubits() != self.num_qubits() {
            return Err(DeviceError::TargetSizeMismatch {
                target: target.num_qubits(),
                device: self.num_qubits(),
            });
        }
        target.validate()?;
        let mut d = self.clone();
        d.target = target;
        d.distances.invalidate_weighted();
        Ok(d)
    }

    /// Returns a copy with an explicit per-qubit/per-edge [`Target`].
    ///
    /// # Panics
    ///
    /// Panics if the target's qubit count does not match the topology or a
    /// figure is out of range (see [`Device::try_with_target`]).
    pub fn with_target(&self, target: Target) -> Self {
        self.try_with_target(target)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns a copy with a deterministic seeded heterogeneous calibration
    /// spread around this device's average calibration (see
    /// [`Target::heterogeneous`]).
    pub fn with_heterogeneous_calibration(&self, seed: u64) -> Self {
        self.with_target(Target::heterogeneous(
            &self.topology,
            &self.calibration,
            seed,
        ))
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of hardware qubits.
    pub fn num_qubits(&self) -> usize {
        self.topology.num_vertices()
    }

    /// The coupling graph.
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// The all-pairs hardware distance matrix (computed on first use with
    /// one BFS per vertex, then cached for the lifetime of the device).
    pub fn distances(&self) -> &DistanceMatrix {
        self.distances.hop(&self.topology)
    }

    /// The calibration-weighted all-pairs distance matrix: shortest paths
    /// over the target's normalised −log-fidelity edge weights (computed on
    /// first use with one Dijkstra per vertex, then cached).  On a uniform
    /// target this equals [`Device::distances`] exactly, entry for entry.
    pub fn weighted_distances(&self) -> &WeightedDistanceMatrix {
        self.distances.weighted(&self.topology, &self.target)
    }

    /// Distance between two hardware qubits.
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        self.distances().distance(a, b)
    }

    /// Returns `true` if a two-qubit gate can be applied directly on
    /// `(a, b)`.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.topology.has_edge(a, b)
    }

    /// Hardware neighbours of a qubit.
    pub fn neighbors(&self, q: usize) -> Vec<usize> {
        self.topology.neighbors(q).collect()
    }

    /// The native gate set.
    pub fn gate_set(&self) -> &GateSet {
        &self.gate_set
    }

    /// The default decomposition basis.
    pub fn default_basis(&self) -> TwoQubitBasis {
        self.gate_set.default_basis()
    }

    /// The calibration data.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The per-qubit / per-edge calibration target.
    pub fn target(&self) -> &Target {
        &self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn industrial_devices_have_expected_shapes() {
        let syc = Device::sycamore();
        assert_eq!(syc.num_qubits(), 54);
        assert_eq!(syc.default_basis(), TwoQubitBasis::Syc);
        let mon = Device::montreal();
        assert_eq!(mon.num_qubits(), 27);
        assert_eq!(mon.default_basis(), TwoQubitBasis::Cnot);
        let asp = Device::aspen();
        assert_eq!(asp.num_qubits(), 16);
        assert_eq!(asp.default_basis(), TwoQubitBasis::ISwap);
    }

    #[test]
    fn generic_devices() {
        let grid = Device::grid(2, 3, TwoQubitBasis::Cnot);
        assert_eq!(grid.num_qubits(), 6);
        assert!(grid.are_adjacent(0, 3));
        assert!(!grid.are_adjacent(0, 4));
        let line = Device::linear(5, TwoQubitBasis::Cz);
        assert_eq!(line.distance(0, 4), 4);
        let full = Device::all_to_all(10, TwoQubitBasis::Cnot);
        assert_eq!(full.distance(3, 9), 1);
        assert_eq!(full.neighbors(0).len(), 9);
    }

    #[test]
    fn with_basis_switches_to_cz() {
        let syc_cz = Device::sycamore().with_basis(TwoQubitBasis::Cz);
        assert_eq!(syc_cz.default_basis(), TwoQubitBasis::Cz);
        assert!(syc_cz.gate_set().supports(TwoQubitBasis::Syc));
        let asp_cz = Device::aspen().with_basis(TwoQubitBasis::Cz);
        assert_eq!(asp_cz.default_basis(), TwoQubitBasis::Cz);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn with_basis_rejects_unsupported_basis() {
        let _ = Device::montreal().with_basis(TwoQubitBasis::Syc);
    }

    #[test]
    fn with_calibration_overrides_noise_figures() {
        let noiseless = Device::montreal()
            .try_with_calibration(Calibration::noiseless())
            .unwrap();
        assert_eq!(noiseless.calibration().two_qubit_error, 0.0);
        assert_eq!(noiseless.num_qubits(), 27);
    }

    #[test]
    fn distance_matrix_is_cached_per_device() {
        let device = Device::montreal();
        let first = device.distances() as *const _;
        let second = device.distances() as *const _;
        assert_eq!(
            first, second,
            "repeated calls must return the same cached matrix"
        );
        // A clone carries the already-computed cache (or recomputes lazily);
        // either way the values agree with a from-scratch computation.
        let clone = device.clone();
        assert_eq!(clone.distances(), device.distances());
        assert_eq!(
            *device.distances(),
            twoqan_graphs::DistanceMatrix::bfs(device.topology())
        );
    }

    #[test]
    fn montreal_distances_follow_heavy_hex_structure() {
        let mon = Device::montreal();
        assert_eq!(mon.distance(0, 1), 1);
        assert!(mon.distance(0, 26) >= 7);
        assert!(mon.are_adjacent(12, 15));
    }

    #[test]
    fn uniform_weighted_distances_equal_hop_distances() {
        let device = Device::montreal();
        assert!(device.target().is_uniform());
        let hop = device.distances();
        let weighted = device.weighted_distances();
        for a in 0..device.num_qubits() {
            for b in 0..device.num_qubits() {
                assert_eq!(
                    weighted.distance(a, b),
                    f64::from(hop.distance(a, b)),
                    "({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_calibration_changes_weighted_but_not_hop_distances() {
        let base = Device::montreal();
        let het = base.with_heterogeneous_calibration(13);
        assert!(!het.target().is_uniform());
        assert_eq!(het.distances(), base.distances());
        let mut any_differs = false;
        for a in 0..het.num_qubits() {
            for b in 0..het.num_qubits() {
                if het.weighted_distances().distance(a, b)
                    != base.weighted_distances().distance(a, b)
                {
                    any_differs = true;
                }
            }
        }
        assert!(any_differs, "heterogeneous weights must move some distance");
        // Determinism: the same seed reproduces the same target.
        let het2 = base.with_heterogeneous_calibration(13);
        assert_eq!(het.target(), het2.target());
    }

    #[test]
    fn with_target_rejects_mismatched_sizes() {
        let device = Device::aspen();
        let wrong = crate::target::Target::uniform(
            &Graph::grid(2, 3),
            &Calibration::montreal_october_2021(),
        );
        let result = std::panic::catch_unwind(|| device.with_target(wrong));
        assert!(result.is_err());
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        // Disconnected topology.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let err = Device::try_from_topology(
            "broken",
            g,
            GateSet::single(TwoQubitBasis::Cnot),
            Calibration::noiseless(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            DeviceError::DisconnectedTopology {
                name: "broken".into()
            }
        );
        // NaN calibration figure.
        let bad = Calibration {
            two_qubit_error: f64::NAN,
            ..Calibration::montreal_october_2021()
        };
        let err = Device::try_from_topology(
            "nan",
            Graph::path(3),
            GateSet::single(TwoQubitBasis::Cnot),
            bad,
        )
        .unwrap_err();
        assert!(
            matches!(err, DeviceError::InvalidCalibration { ref field, .. }
            if field == "two_qubit_error")
        );
        assert!(Device::montreal().try_with_calibration(bad).is_err());
        // Target size mismatch.
        let device = Device::aspen();
        let wrong = crate::target::Target::uniform(
            &Graph::grid(2, 3),
            &Calibration::montreal_october_2021(),
        );
        let err = device.try_with_target(wrong).unwrap_err();
        assert_eq!(
            err,
            DeviceError::TargetSizeMismatch {
                target: 6,
                device: 16
            }
        );
        // The happy paths still work through the try variants.
        let het = crate::target::Target::heterogeneous(device.topology(), device.calibration(), 7);
        assert!(device.try_with_target(het).is_ok());
        assert!(device
            .try_with_calibration(Calibration::noiseless())
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "must be connected")]
    fn disconnected_topology_rejected() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let _ = Device::from_topology(
            "broken",
            g,
            GateSet::single(TwoQubitBasis::Cnot),
            Calibration::noiseless(),
        );
    }
}
