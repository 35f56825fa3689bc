//! The heterogeneous, calibration-aware [`Target`] model.
//!
//! §IV of the paper evaluates 2QAN under real IBMQ Montreal calibration
//! data, where per-edge two-qubit error rates vary by 5–10× across the
//! chip.  [`Calibration`] only carries the device-wide *averages* quoted in
//! the paper; [`Target`] is the per-qubit / per-edge refinement the
//! noise-aware compiler passes and the per-channel noise model consume:
//!
//! * per-edge two-qubit gate error and duration,
//! * per-qubit single-qubit gate error and duration,
//! * per-qubit read-out error and T1/T2 coherence times.
//!
//! [`Target::uniform`] replicates the averages onto every qubit and edge —
//! the exact special case in which every calibration-aware pass degenerates
//! to its hop-count/unit-cycle counterpart.  [`Target::heterogeneous`]
//! draws a deterministic seeded spread around the averages (log-uniform
//! multiplicative factors), standing in for a day-of-experiment calibration
//! snapshot.

use crate::calibration::Calibration;
use crate::error::{check_coherence, check_duration, check_error_rate, DeviceError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use twoqan_circuit::Gate;
use twoqan_graphs::Graph;
use twoqan_math::cost::TwoQubitBasisCost;

/// Per-qubit / per-edge calibration data of a device.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    num_qubits: usize,
    /// Normalised `(min, max)` edges, sorted — the canonical edge order all
    /// per-edge vectors are aligned with.
    edges: Vec<(usize, usize)>,
    edge_index: HashMap<(usize, usize), usize>,
    two_qubit_error: Vec<f64>,
    two_qubit_duration_ns: Vec<f64>,
    single_qubit_error: Vec<f64>,
    single_qubit_duration_ns: Vec<f64>,
    readout_error: Vec<f64>,
    t1_us: Vec<f64>,
    t2_us: Vec<f64>,
    /// Per-edge −log-fidelity weights normalised to mean 1 — exactly `1.0`
    /// on every edge of a uniform target, so weighted distances reproduce
    /// hop counts bit for bit.
    normalized_edge_weight: Vec<f64>,
    /// The device-wide averages this target was derived from.
    average: Calibration,
    uniform: bool,
}

/// Multiplicative spread factors of [`Target::heterogeneous_with_spread`]:
/// each per-qubit/per-edge quantity is the device average times a
/// log-uniform factor in `[1/spread, spread]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeterogeneitySpread {
    /// Spread of the per-edge two-qubit error (default 2.5, i.e. worst/best
    /// edge ratio up to ~6×, matching the 5–10× reported for real devices).
    pub two_qubit_error: f64,
    /// Spread of the per-edge two-qubit gate duration (default 1.25).
    pub two_qubit_duration: f64,
    /// Spread of the per-qubit single-qubit error (default 2.0).
    pub single_qubit_error: f64,
    /// Spread of the per-qubit read-out error (default 2.0).
    pub readout_error: f64,
    /// Spread of the per-qubit T1/T2 coherence times (default 1.5).
    pub coherence: f64,
}

impl Default for HeterogeneitySpread {
    fn default() -> Self {
        Self {
            two_qubit_error: 2.5,
            two_qubit_duration: 1.25,
            single_qubit_error: 2.0,
            readout_error: 2.0,
            coherence: 1.5,
        }
    }
}

/// A log-uniform multiplicative factor in `[1/spread, spread]`.
fn log_uniform_factor(rng: &mut StdRng, spread: f64) -> f64 {
    debug_assert!(spread >= 1.0);
    let u: f64 = rng.gen_range(-1.0..1.0);
    (u * spread.ln()).exp()
}

/// Clamps an error probability into a physically sensible range (shared
/// with the calibration-drift walks in [`crate::drift`]).
pub(crate) fn clamp_error(e: f64) -> f64 {
    e.clamp(1e-6, 0.45)
}

/// A normalised `(min, max)` device edge.
type EdgeKey = (usize, usize);

/// A batch of absolute calibration updates applied atomically by
/// [`Target::perturb`] — the uniform "one calibration cycle drifted these
/// values" currency of single-value updates and of the
/// [`DriftStream`](crate::DriftStream) full-snapshot walks.
///
/// Edges may be given in either orientation; values are *absolute*
/// replacements, not multiplicative factors, so a delta can be logged,
/// replayed and diffed.  An empty delta is a no-op that perturbs nothing
/// (and keeps the target's uniform flag).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftDelta {
    /// New per-edge two-qubit error rates: `((a, b), error)`.
    pub two_qubit_error: Vec<((usize, usize), f64)>,
    /// New per-edge two-qubit gate durations in nanoseconds.
    pub two_qubit_duration_ns: Vec<((usize, usize), f64)>,
    /// New per-qubit single-qubit error rates.
    pub single_qubit_error: Vec<(usize, f64)>,
    /// New per-qubit read-out error rates.
    pub readout_error: Vec<(usize, f64)>,
    /// New per-qubit T1 relaxation times in microseconds.
    pub t1_us: Vec<(usize, f64)>,
    /// New per-qubit T2 dephasing times in microseconds.
    pub t2_us: Vec<(usize, f64)>,
}

impl DriftDelta {
    /// Returns `true` if the delta carries no updates at all.
    pub fn is_empty(&self) -> bool {
        self.two_qubit_error.is_empty()
            && self.two_qubit_duration_ns.is_empty()
            && self.single_qubit_error.is_empty()
            && self.readout_error.is_empty()
            && self.t1_us.is_empty()
            && self.t2_us.is_empty()
    }

    /// Total number of individual value updates in the delta.
    pub fn len(&self) -> usize {
        self.two_qubit_error.len()
            + self.two_qubit_duration_ns.len()
            + self.single_qubit_error.len()
            + self.readout_error.len()
            + self.t1_us.len()
            + self.t2_us.len()
    }
}

impl Target {
    /// The canonical per-edge/per-qubit skeleton: normalised sorted edges
    /// plus the lookup index.
    fn skeleton(topology: &Graph) -> (usize, Vec<EdgeKey>, HashMap<EdgeKey, usize>) {
        let mut edges: Vec<(usize, usize)> = topology
            .edges()
            .into_iter()
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let edge_index = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        (topology.num_vertices(), edges, edge_index)
    }

    /// How strongly edge-error heterogeneity bends the routing weights away
    /// from unit hops.  A raw −log-fidelity weighting makes a chain of two
    /// clean edges look as "close" as one average edge, which trades large
    /// numbers of extra SWAPs for marginally better edges and *loses* ESP;
    /// blending the normalised weight halfway back towards 1 keeps hop
    /// count the primary cost and lets calibration steer the remaining
    /// freedom (which edges, which region) toward the low-error side.
    const EDGE_WEIGHT_BLEND: f64 = 0.5;

    /// Per-edge −log-fidelity weights, normalised to mean 1 and blended
    /// towards 1 by [`Self::EDGE_WEIGHT_BLEND`].  Uniform targets
    /// short-circuit to exactly `1.0` per edge so the weighted distance
    /// matrix equals the hop-count matrix without floating-point residue.
    fn normalize_weights(two_qubit_error: &[f64], uniform: bool) -> Vec<f64> {
        if uniform || two_qubit_error.is_empty() {
            return vec![1.0; two_qubit_error.len()];
        }
        let raw: Vec<f64> = two_qubit_error
            .iter()
            .map(|&e| -(1.0 - clamp_error(e)).ln())
            .collect();
        let mean = raw.iter().sum::<f64>() / raw.len() as f64;
        if mean <= 0.0 {
            return vec![1.0; raw.len()];
        }
        raw.into_iter()
            .map(|w| (1.0 + Self::EDGE_WEIGHT_BLEND * (w / mean - 1.0)).max(1e-9))
            .collect()
    }

    /// A target that replicates the device-wide averages of `calibration`
    /// onto every qubit and edge (the uniform special case).
    pub fn uniform(topology: &Graph, calibration: &Calibration) -> Self {
        let (n, edges, edge_index) = Self::skeleton(topology);
        let e = edges.len();
        let two_qubit_error = vec![calibration.two_qubit_error; e];
        let normalized_edge_weight = Self::normalize_weights(&two_qubit_error, true);
        Self {
            num_qubits: n,
            edges,
            edge_index,
            two_qubit_error,
            two_qubit_duration_ns: vec![calibration.two_qubit_gate_ns; e],
            single_qubit_error: vec![calibration.single_qubit_error; n],
            single_qubit_duration_ns: vec![calibration.single_qubit_gate_ns; n],
            readout_error: vec![calibration.readout_error; n],
            t1_us: vec![calibration.t1_us; n],
            t2_us: vec![calibration.t2_us; n],
            normalized_edge_weight,
            average: *calibration,
            uniform: true,
        }
    }

    /// A deterministic seeded heterogeneous calibration around the averages
    /// of `calibration`, with the default [`HeterogeneitySpread`].
    pub fn heterogeneous(topology: &Graph, calibration: &Calibration, seed: u64) -> Self {
        Self::heterogeneous_with_spread(
            topology,
            calibration,
            seed,
            &HeterogeneitySpread::default(),
        )
    }

    /// A deterministic seeded heterogeneous calibration with explicit
    /// spread factors.  The draw order is fixed (edges in canonical sorted
    /// order, then qubits in index order), so a `(topology, calibration,
    /// seed, spread)` tuple always produces the identical target.
    pub fn heterogeneous_with_spread(
        topology: &Graph,
        calibration: &Calibration,
        seed: u64,
        spread: &HeterogeneitySpread,
    ) -> Self {
        let (n, edges, edge_index) = Self::skeleton(topology);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut two_qubit_error = Vec::with_capacity(edges.len());
        let mut two_qubit_duration_ns = Vec::with_capacity(edges.len());
        for _ in &edges {
            two_qubit_error.push(clamp_error(
                calibration.two_qubit_error * log_uniform_factor(&mut rng, spread.two_qubit_error),
            ));
            two_qubit_duration_ns.push(
                calibration.two_qubit_gate_ns
                    * log_uniform_factor(&mut rng, spread.two_qubit_duration),
            );
        }
        let mut single_qubit_error = Vec::with_capacity(n);
        let mut readout_error = Vec::with_capacity(n);
        let mut t1_us = Vec::with_capacity(n);
        let mut t2_us = Vec::with_capacity(n);
        for _ in 0..n {
            single_qubit_error.push(clamp_error(
                calibration.single_qubit_error
                    * log_uniform_factor(&mut rng, spread.single_qubit_error),
            ));
            readout_error.push(clamp_error(
                calibration.readout_error * log_uniform_factor(&mut rng, spread.readout_error),
            ));
            t1_us.push(calibration.t1_us * log_uniform_factor(&mut rng, spread.coherence));
            t2_us.push(calibration.t2_us * log_uniform_factor(&mut rng, spread.coherence));
        }
        let normalized_edge_weight = Self::normalize_weights(&two_qubit_error, false);
        Self {
            num_qubits: n,
            edges,
            edge_index,
            two_qubit_error,
            two_qubit_duration_ns,
            single_qubit_error,
            single_qubit_duration_ns: vec![calibration.single_qubit_gate_ns; n],
            readout_error,
            t1_us,
            t2_us,
            normalized_edge_weight,
            average: *calibration,
            uniform: false,
        }
    }

    /// Resolves a qubit index for a per-qubit perturbation.
    fn check_qubit(&self, q: usize) -> Result<usize, DeviceError> {
        if q >= self.num_qubits {
            return Err(DeviceError::UnknownQubit {
                qubit: q,
                num_qubits: self.num_qubits,
            });
        }
        Ok(q)
    }

    /// Returns a copy of this target with every update in `delta` applied
    /// atomically: either the whole delta validates and the drifted target
    /// is returned, or the first offending entry is reported as a typed
    /// error and `self` is untouched.
    ///
    /// A non-empty delta always marks the result heterogeneous (drift breaks
    /// uniformity even when a value round-trips to the same number), and any
    /// two-qubit error update recomputes the normalised routing weights.  An
    /// empty delta returns an identical clone.
    ///
    /// # Errors
    ///
    /// [`DeviceError::UnknownEdge`] / [`DeviceError::UnknownQubit`] for
    /// entries naming hardware the target does not have, and
    /// [`DeviceError::InvalidCalibration`] (with the offending field name)
    /// for values outside their physical range — the same rules as
    /// [`Target::validate`].
    pub fn perturb(&self, delta: &DriftDelta) -> Result<Self, DeviceError> {
        let mut next = self.clone();
        for &((a, b), error) in &delta.two_qubit_error {
            let i = next
                .edge_index(a, b)
                .ok_or(DeviceError::UnknownEdge { a, b })?;
            check_error_rate(
                &format!("two_qubit_error[{}-{}]", a.min(b), a.max(b)),
                error,
            )?;
            next.two_qubit_error[i] = error;
        }
        for &((a, b), duration) in &delta.two_qubit_duration_ns {
            let i = next
                .edge_index(a, b)
                .ok_or(DeviceError::UnknownEdge { a, b })?;
            // Pair the duration with the (possibly just-updated) edge error
            // so a zero duration on a noisy edge is rejected like validate().
            check_duration(
                &format!("two_qubit_duration_ns[{}-{}]", a.min(b), a.max(b)),
                duration,
                next.two_qubit_error[i],
            )?;
            next.two_qubit_duration_ns[i] = duration;
        }
        for &(q, error) in &delta.single_qubit_error {
            let q = next.check_qubit(q)?;
            check_error_rate(&format!("single_qubit_error[{q}]"), error)?;
            next.single_qubit_error[q] = error;
        }
        for &(q, error) in &delta.readout_error {
            let q = next.check_qubit(q)?;
            check_error_rate(&format!("readout_error[{q}]"), error)?;
            next.readout_error[q] = error;
        }
        for &(q, t1) in &delta.t1_us {
            let q = next.check_qubit(q)?;
            check_coherence(&format!("t1_us[{q}]"), t1)?;
            next.t1_us[q] = t1;
        }
        for &(q, t2) in &delta.t2_us {
            let q = next.check_qubit(q)?;
            check_coherence(&format!("t2_us[{q}]"), t2)?;
            next.t2_us[q] = t2;
        }
        if !delta.is_empty() {
            next.uniform = false;
        }
        if !delta.two_qubit_error.is_empty() {
            next.normalized_edge_weight = Self::normalize_weights(&next.two_qubit_error, false);
        }
        Ok(next)
    }

    /// Checks every per-edge / per-qubit figure against its physical range
    /// (the same rules as [`Calibration::validate`], field names carrying
    /// the offending edge or qubit).
    /// [`Device::try_with_target`](crate::Device::try_with_target)
    /// validates through this, so a hand-built calibration snapshot with a
    /// NaN error rate or a negative coherence time is rejected with a typed
    /// error at attach time.
    pub fn validate(&self) -> Result<(), DeviceError> {
        for (i, &(a, b)) in self.edges.iter().enumerate() {
            check_error_rate(
                &format!("two_qubit_error[{a}-{b}]"),
                self.two_qubit_error[i],
            )?;
            check_duration(
                &format!("two_qubit_duration_ns[{a}-{b}]"),
                self.two_qubit_duration_ns[i],
                self.two_qubit_error[i],
            )?;
        }
        for q in 0..self.num_qubits {
            check_error_rate(
                &format!("single_qubit_error[{q}]"),
                self.single_qubit_error[q],
            )?;
            check_duration(
                &format!("single_qubit_duration_ns[{q}]"),
                self.single_qubit_duration_ns[q],
                self.single_qubit_error[q],
            )?;
            check_error_rate(&format!("readout_error[{q}]"), self.readout_error[q])?;
            check_coherence(&format!("t1_us[{q}]"), self.t1_us[q])?;
            check_coherence(&format!("t2_us[{q}]"), self.t2_us[q])?;
        }
        self.average.validate()
    }

    /// Number of hardware qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The calibrated edges in canonical `(min, max)` sorted order.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Returns `true` if every per-qubit/per-edge value equals the device
    /// average (the paper-quoted scalar calibration).
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// The device-wide averages this target was derived from.
    pub fn average(&self) -> &Calibration {
        &self.average
    }

    /// Index of edge `(a, b)` into the per-edge vectors, if calibrated.
    #[inline]
    pub fn edge_index(&self, a: usize, b: usize) -> Option<usize> {
        self.edge_index.get(&(a.min(b), a.max(b))).copied()
    }

    /// Two-qubit gate error on edge `(a, b)`; pairs without a calibrated
    /// edge (e.g. the logical pairs of the connectivity-unconstrained NoMap
    /// reference) fall back to the device average.
    #[inline]
    pub fn two_qubit_error(&self, a: usize, b: usize) -> f64 {
        match self.edge_index(a, b) {
            Some(i) => self.two_qubit_error[i],
            None => self.average.two_qubit_error,
        }
    }

    /// Two-qubit gate duration on edge `(a, b)` in nanoseconds (device
    /// average for uncalibrated pairs).
    #[inline]
    pub fn two_qubit_duration_ns(&self, a: usize, b: usize) -> f64 {
        match self.edge_index(a, b) {
            Some(i) => self.two_qubit_duration_ns[i],
            None => self.average.two_qubit_gate_ns,
        }
    }

    /// Single-qubit gate error on qubit `q`.
    #[inline]
    pub fn single_qubit_error(&self, q: usize) -> f64 {
        self.single_qubit_error[q]
    }

    /// Single-qubit gate duration on qubit `q` in nanoseconds.
    #[inline]
    pub fn single_qubit_duration_ns(&self, q: usize) -> f64 {
        self.single_qubit_duration_ns[q]
    }

    /// Read-out error of qubit `q`.
    #[inline]
    pub fn readout_error(&self, q: usize) -> f64 {
        self.readout_error[q]
    }

    /// T1 relaxation time of qubit `q` in microseconds.
    #[inline]
    pub fn t1_us(&self, q: usize) -> f64 {
        self.t1_us[q]
    }

    /// T2 dephasing time of qubit `q` in microseconds.
    #[inline]
    pub fn t2_us(&self, q: usize) -> f64 {
        self.t2_us[q]
    }

    /// Probability that qubit `q` survives idling for `duration_ns` without
    /// a decoherence event (`exp(−t/T1)·exp(−t/T2)` with its own coherence
    /// times).
    pub fn idle_survival(&self, q: usize, duration_ns: f64) -> f64 {
        let (t1, t2) = (self.t1_us[q], self.t2_us[q]);
        if !t1.is_finite() || !t2.is_finite() {
            return 1.0;
        }
        let t_us = duration_ns / 1000.0;
        (-t_us / t1).exp() * (-t_us / t2).exp()
    }

    /// The −log-fidelity routing weight of edge `(a, b)`, normalised so the
    /// mean edge weight is 1 (and exactly `1.0` everywhere on a uniform
    /// target).  Uncalibrated pairs cost the mean weight.
    #[inline]
    pub fn edge_weight(&self, a: usize, b: usize) -> f64 {
        match self.edge_index(a, b) {
            Some(i) => self.normalized_edge_weight[i],
            None => 1.0,
        }
    }

    /// Duration of a scheduled gate in nanoseconds under this target: a
    /// two-qubit gate costs its native-gate count (per the basis cost
    /// model) times the edge's per-native-gate duration; a single-qubit
    /// gate costs its qubit's single-qubit duration.
    pub fn gate_duration_ns(&self, gate: &Gate, basis: TwoQubitBasisCost) -> f64 {
        if gate.is_two_qubit() {
            let native = gate.kind.hardware_two_qubit_cost(basis) as f64;
            native * self.two_qubit_duration_ns(gate.qubit0(), gate.qubit1())
        } else {
            self.single_qubit_duration_ns(gate.qubit0())
        }
    }

    /// The estimated-success-probability factors `(gate, idle, readout)` of
    /// one execution of `schedule` under this target — the single source of
    /// truth for the per-channel ESP accounting shared by the compiler's
    /// portfolio ranking (`twoqan::TwoQanCompiler`, which sums the factors'
    /// logs) and the benchmark noise model (`twoqan_sim::TargetNoiseModel`):
    ///
    /// * **gate** — per two-qubit gate: its edge's fidelity to the power of
    ///   the native-gate count, times one interleaved single-qubit layer
    ///   per native gate per operand; per single-qubit gate: its qubit's
    ///   fidelity,
    /// * **idle** — per qubit in `timeline.used_qubits()`: its own T1/T2
    ///   survival over its timeline idle time,
    /// * **readout** — per qubit in `measured_qubits`: its read-out
    ///   fidelity.
    pub fn esp_factors(
        &self,
        schedule: &twoqan_circuit::ScheduledCircuit,
        timeline: &twoqan_circuit::Timeline,
        basis: TwoQubitBasisCost,
        measured_qubits: &[usize],
    ) -> (f64, f64, f64) {
        let mut gate = 1.0f64;
        for g in schedule.iter_gates() {
            if g.is_two_qubit() {
                let native = g.kind.hardware_two_qubit_cost(basis) as i32;
                let (a, b) = (g.qubit0(), g.qubit1());
                gate *= (1.0 - self.two_qubit_error(a, b)).powi(native);
                gate *= ((1.0 - self.single_qubit_error(a)) * (1.0 - self.single_qubit_error(b)))
                    .powi(native);
            } else {
                gate *= 1.0 - self.single_qubit_error(g.qubit0());
            }
        }
        let mut idle = 1.0f64;
        for q in timeline.used_qubits() {
            idle *= self.idle_survival(q, timeline.idle_ns(q));
        }
        let mut readout = 1.0f64;
        for &q in measured_qubits {
            readout *= 1.0 - self.readout_error(q);
        }
        (gate, idle, readout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_circuit::GateKind;

    fn grid() -> Graph {
        Graph::grid(2, 3)
    }

    #[test]
    fn uniform_target_replicates_the_averages() {
        let cal = Calibration::montreal_october_2021();
        let t = Target::uniform(&grid(), &cal);
        assert!(t.is_uniform());
        assert_eq!(t.num_qubits(), 6);
        assert_eq!(t.edges().len(), 7);
        for &(a, b) in t.edges() {
            assert_eq!(t.two_qubit_error(a, b), cal.two_qubit_error);
            assert_eq!(t.two_qubit_duration_ns(a, b), cal.two_qubit_gate_ns);
            assert_eq!(t.edge_weight(a, b), 1.0);
        }
        for q in 0..6 {
            assert_eq!(t.single_qubit_error(q), cal.single_qubit_error);
            assert_eq!(t.readout_error(q), cal.readout_error);
            assert_eq!(t.t1_us(q), cal.t1_us);
        }
        // Non-edges fall back to the average.
        assert_eq!(t.two_qubit_error(0, 5), cal.two_qubit_error);
        assert_eq!(t.edge_weight(0, 5), 1.0);
    }

    #[test]
    fn heterogeneous_targets_are_seeded_and_spread() {
        let cal = Calibration::montreal_october_2021();
        let a = Target::heterogeneous(&grid(), &cal, 7);
        let b = Target::heterogeneous(&grid(), &cal, 7);
        let c = Target::heterogeneous(&grid(), &cal, 8);
        assert_eq!(a, b, "same seed must reproduce the same target");
        assert_ne!(a, c, "different seeds must differ");
        assert!(!a.is_uniform());
        // The per-edge errors actually spread around the average.
        let errors: Vec<f64> = a
            .edges()
            .iter()
            .map(|&(x, y)| a.two_qubit_error(x, y))
            .collect();
        let min = errors.iter().copied().fold(f64::MAX, f64::min);
        let max = errors.iter().copied().fold(f64::MIN, f64::max);
        assert!(max > min, "heterogeneous errors must differ across edges");
        assert!(max / min <= 2.5 * 2.5 + 1e-9);
        // Weights are normalised to mean 1 and anti-monotone in fidelity.
        let mean: f64 = a
            .edges()
            .iter()
            .map(|&(x, y)| a.edge_weight(x, y))
            .sum::<f64>()
            / a.edges().len() as f64;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn worse_edges_have_larger_weights() {
        let cal = Calibration::montreal_october_2021();
        let t = Target::heterogeneous(&grid(), &cal, 3);
        let mut pairs: Vec<((usize, usize), f64, f64)> = t
            .edges()
            .iter()
            .map(|&(a, b)| ((a, b), t.two_qubit_error(a, b), t.edge_weight(a, b)))
            .collect();
        pairs.sort_by(|x, y| x.1.total_cmp(&y.1));
        for w in pairs.windows(2) {
            assert!(w[0].2 <= w[1].2, "weights must be monotone in error");
        }
    }

    #[test]
    fn gate_durations_follow_the_basis_cost_model() {
        let cal = Calibration::montreal_october_2021();
        let t = Target::uniform(&grid(), &cal);
        // A ZZ exponential costs 2 CNOTs on a CNOT device.
        let zz = Gate::canonical(0, 1, 0.0, 0.0, 0.3);
        assert_eq!(
            t.gate_duration_ns(&zz, TwoQubitBasisCost::Cnot),
            2.0 * cal.two_qubit_gate_ns
        );
        // A SWAP costs 3.
        let swap = Gate::swap(0, 1);
        assert_eq!(
            t.gate_duration_ns(&swap, TwoQubitBasisCost::Cnot),
            3.0 * cal.two_qubit_gate_ns
        );
        let rx = Gate::single(GateKind::Rx(0.3), 2);
        assert_eq!(
            t.gate_duration_ns(&rx, TwoQubitBasisCost::Cnot),
            cal.single_qubit_gate_ns
        );
    }

    #[test]
    fn generated_targets_validate_and_corrupted_entries_are_named() {
        let cal = Calibration::montreal_october_2021();
        assert_eq!(Target::uniform(&grid(), &cal).validate(), Ok(()));
        assert_eq!(
            Target::uniform(&grid(), &Calibration::noiseless()).validate(),
            Ok(())
        );
        for seed in 0..8 {
            let t = Target::heterogeneous(&grid(), &cal, seed);
            assert_eq!(t.validate(), Ok(()), "seed {seed}");
        }
        let mut t = Target::heterogeneous(&grid(), &cal, 3);
        t.two_qubit_error[2] = f64::NAN;
        match t.validate() {
            Err(crate::error::DeviceError::InvalidCalibration { field, .. }) => {
                let (a, b) = t.edges[2];
                assert_eq!(field, format!("two_qubit_error[{a}-{b}]"));
            }
            other => panic!("expected InvalidCalibration, got {other:?}"),
        }
        let mut t = Target::heterogeneous(&grid(), &cal, 3);
        t.t2_us[4] = -1.0;
        match t.validate() {
            Err(crate::error::DeviceError::InvalidCalibration { field, .. }) => {
                assert_eq!(field, "t2_us[4]");
            }
            other => panic!("expected InvalidCalibration, got {other:?}"),
        }
    }

    #[test]
    fn single_value_drift_produces_a_distinct_valid_target() {
        let cal = Calibration::montreal_october_2021();
        let t = Target::heterogeneous(&grid(), &cal, 5);
        let (a, b) = t.edges()[1];
        let drifted = t
            .perturb(&DriftDelta {
                two_qubit_error: vec![((a, b), t.two_qubit_error(a, b) * 1.5)],
                ..DriftDelta::default()
            })
            .unwrap();
        assert_ne!(t, drifted);
        assert_eq!(drifted.validate(), Ok(()));
        assert_eq!(drifted.two_qubit_error(a, b), t.two_qubit_error(a, b) * 1.5);
        assert!(!drifted.is_uniform());
        // Unknown edges/qubits and out-of-range values are rejected.
        assert!(matches!(
            t.perturb(&DriftDelta {
                two_qubit_error: vec![((0, 5), 0.01)],
                ..DriftDelta::default()
            }),
            Err(crate::error::DeviceError::UnknownEdge { .. })
        ));
        assert!(t
            .perturb(&DriftDelta {
                two_qubit_error: vec![((a, b), 1.5)],
                ..DriftDelta::default()
            })
            .is_err());
        assert!(matches!(
            t.perturb(&DriftDelta {
                readout_error: vec![(9, 0.1)],
                ..DriftDelta::default()
            }),
            Err(crate::error::DeviceError::UnknownQubit { .. })
        ));
        let r = t
            .perturb(&DriftDelta {
                readout_error: vec![(2, 0.33)],
                ..DriftDelta::default()
            })
            .unwrap();
        assert_eq!(r.readout_error(2), 0.33);
        assert_eq!(r.validate(), Ok(()));
    }

    #[test]
    fn perturb_applies_a_multi_field_delta_atomically() {
        let cal = Calibration::montreal_october_2021();
        let t = Target::heterogeneous(&grid(), &cal, 5);
        let (a, b) = t.edges()[0];
        let delta = crate::target::DriftDelta {
            two_qubit_error: vec![((a, b), 0.02)],
            two_qubit_duration_ns: vec![((b, a), 410.0)],
            single_qubit_error: vec![(1, 0.001)],
            readout_error: vec![(2, 0.05)],
            t1_us: vec![(3, 77.0)],
            t2_us: vec![(3, 66.0)],
        };
        assert_eq!(delta.len(), 6);
        assert!(!delta.is_empty());
        let d = t.perturb(&delta).unwrap();
        assert_eq!(d.two_qubit_error(a, b), 0.02);
        // Reversed-orientation edges resolve to the same canonical entry.
        assert_eq!(d.two_qubit_duration_ns(a, b), 410.0);
        assert_eq!(d.single_qubit_error(1), 0.001);
        assert_eq!(d.readout_error(2), 0.05);
        assert_eq!(d.t1_us(3), 77.0);
        assert_eq!(d.t2_us(3), 66.0);
        assert_eq!(d.validate(), Ok(()));
        assert!(!d.is_uniform());
        // The edge-error update recomputed the routing weights.
        assert_ne!(d.edge_weight(a, b), t.edge_weight(a, b));
        // An empty delta is a pure clone that keeps the uniform flag.
        let u = Target::uniform(&grid(), &cal);
        let same = u.perturb(&crate::target::DriftDelta::default()).unwrap();
        assert_eq!(same, u);
        assert!(same.is_uniform());
    }

    #[test]
    fn perturb_rejects_bad_entries_with_typed_errors() {
        let cal = Calibration::montreal_october_2021();
        let t = Target::heterogeneous(&grid(), &cal, 5);
        let (a, b) = t.edges()[0];
        // Unknown hardware.
        assert!(matches!(
            t.perturb(&DriftDelta {
                two_qubit_error: vec![((0, 5), 0.01)],
                ..DriftDelta::default()
            }),
            Err(crate::error::DeviceError::UnknownEdge { a: 0, b: 5 })
        ));
        assert!(matches!(
            t.perturb(&crate::target::DriftDelta {
                t1_us: vec![(99, 50.0)],
                ..Default::default()
            }),
            Err(crate::error::DeviceError::UnknownQubit { qubit: 99, .. })
        ));
        // Out-of-range values name the offending field.
        match t.perturb(&crate::target::DriftDelta {
            t2_us: vec![(2, -1.0)],
            ..Default::default()
        }) {
            Err(crate::error::DeviceError::InvalidCalibration { field, .. }) => {
                assert_eq!(field, "t2_us[2]");
            }
            other => panic!("expected InvalidCalibration, got {other:?}"),
        }
        // A zero duration paired with a *just-updated* nonzero error is
        // rejected — the duration check sees the post-update error.
        let bad = crate::target::DriftDelta {
            two_qubit_error: vec![((a, b), 0.01)],
            two_qubit_duration_ns: vec![((a, b), 0.0)],
            ..Default::default()
        };
        assert!(t.perturb(&bad).is_err());
    }

    #[test]
    fn per_qubit_idle_survival_uses_per_qubit_coherence() {
        let cal = Calibration::montreal_october_2021();
        let t = Target::heterogeneous(&grid(), &cal, 11);
        let (best, worst) = (0..6).fold((0usize, 0usize), |(b, w), q| {
            let better = t.t1_us(q) + t.t2_us(q) > t.t1_us(b) + t.t2_us(b);
            let worse = t.t1_us(q) + t.t2_us(q) < t.t1_us(w) + t.t2_us(w);
            (if better { q } else { b }, if worse { q } else { w })
        });
        assert!(t.idle_survival(best, 50_000.0) > t.idle_survival(worst, 50_000.0));
        let noiseless = Target::uniform(&grid(), &Calibration::noiseless());
        assert_eq!(noiseless.idle_survival(0, 1e9), 1.0);
    }
}
