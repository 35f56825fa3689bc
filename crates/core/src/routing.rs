//! Permutation-aware qubit routing (Algorithm 1) and SWAP unitary unifying
//! (§III-B and §III-C of the paper).
//!
//! Unlike order-respecting routers, the 2QAN router treats the two-qubit
//! operators of one Trotter step as an unordered set: any operator whose
//! qubits are nearest-neighbour in *some* qubit map can be executed while
//! that map is in effect.  The router therefore only has to bring the
//! remaining non-NN pairs together, and it picks each SWAP by three criteria
//! (in priority order):
//!
//! 1. **Least SWAP count** — the SWAP minimising the Eq.-7 cost (total
//!    hardware distance) of the still-unrouted gates,
//! 2. **Shortest circuit depth** — the SWAP that can be interleaved the most
//!    with already-placed gates (here: the one whose physical qubits are the
//!    least busy so far),
//! 3. **Best gate optimisation** — a SWAP that can be merged with a circuit
//!    gate on the same qubit pair becomes a *dressed SWAP*, eliminating the
//!    separate circuit gate entirely.
//!
//! The output is the initial map `φ_0`, the gates assigned to each map
//! `φ_i` and the SWAPs between consecutive maps, exactly the structure
//! Algorithm 2 (the hybrid scheduler) consumes.  Only the initial and final
//! maps are stored: every `φ_i` follows from `φ_0` by replaying the SWAPs.

use crate::error::CompileError;
use crate::mapping::{CostModel, QubitMap};
use rand::Rng;
use std::collections::HashMap;
use twoqan_circuit::{Circuit, Gate, GateKind};
use twoqan_device::Device;
use twoqan_graphs::{DistanceMatrix, WeightedDistanceMatrix};

/// Native two-qubit gates a plain SWAP costs — the weight the
/// calibration-aware SWAP selection attaches to the SWAP's own edge.
const SWAP_NATIVE_COST: f64 = 3.0;

/// A routing SWAP inserted between two stages, possibly merged with a
/// circuit gate ("dressed").
#[derive(Debug, Clone, PartialEq)]
pub struct SwapAction {
    /// The physical qubit pair the SWAP acts on (a hardware edge).
    pub physical: (usize, usize),
    /// The logical qubits that were sitting on those physical qubits when
    /// the SWAP was inserted (`None` for unoccupied physical qubits).
    pub logical: (Option<usize>, Option<usize>),
    /// The circuit gate merged into this SWAP, if any (always a
    /// [`GateKind::Canonical`] gate on the same logical pair).
    pub merged: Option<Gate>,
}

impl SwapAction {
    /// Returns `true` if the SWAP was merged with a circuit gate.
    pub fn is_dressed(&self) -> bool {
        self.merged.is_some()
    }

    /// The physical-level gate this action turns into: a plain SWAP or a
    /// dressed SWAP carrying the merged gate's interaction coefficients.
    pub fn physical_gate(&self) -> Gate {
        match self.merged {
            Some(g) => match g.kind {
                GateKind::Canonical { xx, yy, zz } => Gate::two(
                    GateKind::DressedSwap { xx, yy, zz },
                    self.physical.0,
                    self.physical.1,
                ),
                _ => unreachable!("only canonical gates are merged into SWAPs"),
            },
            None => Gate::two(GateKind::Swap, self.physical.0, self.physical.1),
        }
    }
}

/// One routing stage `i`: the circuit gates that are executed while the
/// qubit map `φ_i` is in effect, and the SWAP that transitions to the next
/// map.
///
/// `φ_i` itself is not stored: it is [`RoutedCircuit::initial_map`] with
/// the SWAPs of stages `0..i` applied, so a routed circuit stays small
/// however many stages it has.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingStage {
    /// Circuit gates (on *logical* qubit pairs) that are nearest-neighbour
    /// under `φ_i` and assigned to this stage.
    pub circuit_gates: Vec<Gate>,
    /// The SWAP applied at the end of this stage (`None` for the last stage).
    pub swap: Option<SwapAction>,
}

/// The router's output: the initial and final maps, the per-map gate
/// assignment with the SWAPs between maps, and the single-qubit gates (which
/// are free to execute under the initial map).
///
/// The intermediate maps are not stored (see [`RoutingStage`]); a consumer
/// that needs them replays the stage SWAPs from [`RoutedCircuit::initial_map`],
/// and the replay ends at [`RoutedCircuit::final_map`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCircuit {
    /// Number of physical qubits on the target device.
    pub num_physical: usize,
    /// The routing stages `φ_0, φ_1, …` in insertion order.
    pub stages: Vec<RoutingStage>,
    /// Single-qubit gates of the input circuit (on logical qubits); they are
    /// scheduled under the initial map.
    pub single_qubit_gates: Vec<Gate>,
    initial_map: QubitMap,
    final_map: QubitMap,
}

impl RoutedCircuit {
    /// The initial qubit map `φ_0`.
    pub fn initial_map(&self) -> &QubitMap {
        &self.initial_map
    }

    /// The final qubit map (after all SWAPs).
    pub fn final_map(&self) -> &QubitMap {
        &self.final_map
    }

    /// Number of inserted SWAPs (plain + dressed).
    pub fn swap_count(&self) -> usize {
        self.stages.iter().filter(|s| s.swap.is_some()).count()
    }

    /// Number of SWAPs that were merged with circuit gates.
    pub fn dressed_swap_count(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.swap.as_ref().map(SwapAction::is_dressed).unwrap_or(false))
            .count()
    }

    /// Number of circuit gates assigned across all stages (excluding the
    /// ones absorbed into dressed SWAPs).
    pub fn placed_circuit_gate_count(&self) -> usize {
        self.stages.iter().map(|s| s.circuit_gates.len()).sum()
    }

    /// Total number of two-qubit operations after routing: placed circuit
    /// gates plus SWAPs (dressed SWAPs count once).
    pub fn total_two_qubit_ops(&self) -> usize {
        self.placed_circuit_gate_count() + self.swap_count()
    }
}

/// Configuration of the routing pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingConfig {
    /// Enable the SWAP-unitary-unifying criterion and merging (dressed
    /// SWAPs).  Disabling it is used for ablation studies.
    pub enable_dressing: bool,
    /// The SWAP-selection cost model.  With
    /// [`CostModel::CalibrationAware`] the "least SWAP count" criterion
    /// scores candidates by the −log-fidelity-weighted Eq.-7 cost of the
    /// unrouted set *plus* the SWAP's own weighted edge cost, steering
    /// routes through the device's low-error edges.  With a uniform target
    /// this reproduces the hop-count selection exactly.
    pub cost: CostModel,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        Self {
            enable_dressing: true,
            cost: CostModel::HopCount,
        }
    }
}

/// The router's mutable hot-path state: one working [`QubitMap`] mutated in
/// place, the unrouted gates with their per-gate hardware distances, and the
/// running Eq.-7 cost of the unrouted set.
///
/// Distances are integers stored in `f64`s well below 2⁵³, so the
/// incrementally maintained total is exactly the sum a full recomputation
/// would produce — candidate scores are bit-identical to the naive
/// evaluation and the selection (including its tie set) is unchanged.
struct RouterState<'d> {
    /// The device's cached all-pairs distance matrix, fetched once so the
    /// innermost scoring loops skip the per-call `OnceLock` check of
    /// `Device::distance`.
    distances: &'d DistanceMatrix,
    /// The calibration-weighted distance matrix, present only under
    /// [`CostModel::CalibrationAware`].  Hop distances keep driving gate
    /// selection and NN detection (`dist == 1`); the weighted matrix only
    /// re-scores the SWAP-selection criterion.
    weighted: Option<&'d WeightedDistanceMatrix>,
    map: QubitMap,
    unrouted: Vec<Gate>,
    /// `dist[k]` = hardware distance of `unrouted[k]` under `map`.
    dist: Vec<u32>,
    /// Σ `dist[k]` — the Eq.-7 cost of the unrouted set.
    total_cost: f64,
    /// For each logical qubit, the indices into `unrouted` of the gates
    /// acting on it (rebuilt after each accepted SWAP).
    gates_on: Vec<Vec<usize>>,
    /// Number of not-yet-merged canonical circuit gates per normalised
    /// logical pair, counted across the unrouted set *and* the placed
    /// stages, so the dressing criterion is an O(1) lookup per candidate
    /// instead of a scan over both.
    mergeable_counts: HashMap<(usize, usize), usize>,
}

impl<'d> RouterState<'d> {
    fn new(
        map: QubitMap,
        unrouted: Vec<Gate>,
        circuit: &Circuit,
        device: &'d Device,
        cost: CostModel,
    ) -> Self {
        let distances = device.distances();
        let weighted = match cost {
            CostModel::HopCount => None,
            CostModel::CalibrationAware => Some(device.weighted_distances()),
        };
        let dist: Vec<u32> = unrouted
            .iter()
            .map(|g| distances.distance(map.physical(g.qubit0()), map.physical(g.qubit1())))
            .collect();
        let total_cost = dist.iter().map(|&d| f64::from(d)).sum();
        // Every canonical two-qubit gate starts out either placed (stage 0)
        // or unrouted, and stays mergeable until absorbed into a SWAP.
        let mut mergeable_counts: HashMap<(usize, usize), usize> = HashMap::new();
        for g in circuit.two_qubit_gates() {
            if matches!(g.kind, GateKind::Canonical { .. }) {
                *mergeable_counts.entry(g.qubit_pair()).or_insert(0) += 1;
            }
        }
        let mut state = Self {
            distances,
            weighted,
            map,
            unrouted,
            dist,
            total_cost,
            gates_on: Vec::new(),
            mergeable_counts,
        };
        state.rebuild_index();
        state
    }

    /// Returns `true` if a not-yet-merged canonical circuit gate exists on
    /// the logical pair `(la, lb)` — in the unrouted set or a placed stage.
    #[inline]
    fn has_mergeable(&self, la: usize, lb: usize) -> bool {
        self.mergeable_counts
            .get(&(la.min(lb), la.max(lb)))
            .is_some_and(|&count| count > 0)
    }

    /// Rebuilds the logical-qubit → unrouted-gate index (O(unrouted)).
    fn rebuild_index(&mut self) {
        for list in &mut self.gates_on {
            list.clear();
        }
        self.gates_on.resize(self.map.num_logical(), Vec::new());
        for (k, g) in self.unrouted.iter().enumerate() {
            self.gates_on[g.qubit0()].push(k);
            self.gates_on[g.qubit1()].push(k);
        }
    }

    /// The physical location a logical qubit would occupy after swapping the
    /// physical qubits `a` and `b`, without touching the map.
    #[inline]
    fn physical_after(&self, logical: usize, a: usize, b: usize) -> usize {
        let p = self.map.physical(logical);
        if p == a {
            b
        } else if p == b {
            a
        } else {
            p
        }
    }

    /// Distance of `gate` after a hypothetical physical SWAP of `(a, b)`.
    #[inline]
    fn gate_distance_after(&self, gate: &Gate, a: usize, b: usize) -> u32 {
        self.distances.distance(
            self.physical_after(gate.qubit0(), a, b),
            self.physical_after(gate.qubit1(), a, b),
        )
    }

    /// The Eq.-7 cost of the unrouted set after a hypothetical SWAP of
    /// `(a, b)`, evaluated as a delta over only the affected gates: the ones
    /// acting on a logical qubit currently placed on `a` or `b`.
    fn cost_after_swap(&self, a: usize, b: usize) -> f64 {
        let mut delta = 0i64;
        for logical in [self.map.logical(a), self.map.logical(b)]
            .into_iter()
            .flatten()
        {
            for &k in &self.gates_on[logical] {
                let g = &self.unrouted[k];
                // A gate whose both qubits sit on the swapped pair appears in
                // both lists but its distance is unchanged (1 both ways), so
                // double-counting its zero delta is harmless; every other
                // affected gate appears in exactly one list.
                delta += i64::from(self.gate_distance_after(g, a, b)) - i64::from(self.dist[k]);
            }
        }
        self.total_cost + delta as f64
    }

    /// The calibration-weighted SWAP-selection cost of swapping `(a, b)`:
    /// the change in weighted Eq.-7 cost over the affected unrouted gates
    /// plus the SWAP's own weighted edge cost (a plain SWAP executes
    /// [`SWAP_NATIVE_COST`] native gates on that edge).  Only the *delta*
    /// matters — candidates in one selection round share the same baseline.
    fn weighted_cost_after_swap(&self, w: &WeightedDistanceMatrix, a: usize, b: usize) -> f64 {
        let mut delta = 0.0f64;
        for logical in [self.map.logical(a), self.map.logical(b)]
            .into_iter()
            .flatten()
        {
            for &k in &self.gates_on[logical] {
                let g = &self.unrouted[k];
                let (q0, q1) = (g.qubit0(), g.qubit1());
                let before = w.distance(self.map.physical(q0), self.map.physical(q1));
                let after =
                    w.distance(self.physical_after(q0, a, b), self.physical_after(q1, a, b));
                delta += after - before;
            }
        }
        delta + SWAP_NATIVE_COST * w.distance(a, b)
    }

    /// Applies an accepted SWAP to the working map and refreshes the
    /// distances of the affected gates.
    fn apply_swap(&mut self, a: usize, b: usize) {
        self.map.apply_physical_swap(a, b);
        for logical in [self.map.logical(a), self.map.logical(b)]
            .into_iter()
            .flatten()
        {
            for &k in &self.gates_on[logical] {
                let g = self.unrouted[k];
                let new_dist = self
                    .distances
                    .distance(self.map.physical(g.qubit0()), self.map.physical(g.qubit1()));
                self.total_cost += f64::from(new_dist) - f64::from(self.dist[k]);
                self.dist[k] = new_dist;
            }
        }
    }

    /// Removes the unrouted gate at index `k` (swap-remove order, matching
    /// the original router), updating cost and index structures.
    fn remove_gate(&mut self, k: usize) -> Gate {
        self.total_cost -= f64::from(self.dist[k]);
        self.dist.swap_remove(k);
        self.unrouted.swap_remove(k)
    }
}

/// Runs the permutation-aware routing pass (Algorithm 1).
///
/// `circuit` is one (already circuit-unified) Trotter step; `initial_map` is
/// the placement produced by the mapping pass.
///
/// The loop is allocation-free in the hot path: a single working map is
/// mutated in place (stages record their SWAP, not a copy of the map), and
/// the Eq.-7 cost of the unrouted set is maintained incrementally so each
/// candidate SWAP is scored by the delta over the few gates it touches
/// instead of a full rescan.
///
/// # Errors
///
/// Returns [`CompileError::RoutingStuck`] if no progress can be made, which
/// cannot happen on the connected devices produced by `twoqan-device` but is
/// reported rather than looping forever.
pub fn route<R: Rng + ?Sized>(
    circuit: &Circuit,
    device: &Device,
    initial_map: &QubitMap,
    config: &RoutingConfig,
    rng: &mut R,
) -> Result<RoutedCircuit, CompileError> {
    let single_qubit_gates: Vec<Gate> = circuit.single_qubit_gates().copied().collect();
    let mut unrouted: Vec<Gate> = Vec::new();
    let mut stage0_gates: Vec<Gate> = Vec::new();
    for g in circuit.two_qubit_gates() {
        if initial_map.logically_adjacent(device, g.qubit0(), g.qubit1()) {
            stage0_gates.push(*g);
        } else {
            unrouted.push(*g);
        }
    }

    // Per-physical-qubit busy counters used by the depth criterion.
    let mut busy = vec![0usize; device.num_qubits()];
    for g in &stage0_gates {
        busy[initial_map.physical(g.qubit0())] += 1;
        busy[initial_map.physical(g.qubit1())] += 1;
    }

    let mut stages = vec![RoutingStage {
        circuit_gates: stage0_gates,
        swap: None,
    }];

    let mut state = RouterState::new(initial_map.clone(), unrouted, circuit, device, config.cost);

    // Safeguard against pathological non-progress: after this many SWAPs we
    // switch to a forced-progress selection rule.
    let force_progress_after = (state.total_cost as usize) * 4 + 16;
    let mut inserted_swaps = 0usize;

    while !state.unrouted.is_empty() {
        // Line 5: select the unrouted gate with the shortest hardware distance.
        let (gate_idx, _) = state
            .dist
            .iter()
            .enumerate()
            .min_by_key(|&(_, &d)| d)
            .expect("unrouted set is non-empty");
        let target_gate = state.unrouted[gate_idx];

        // Line 6: candidate SWAPs act on one of the target gate's qubits.
        let candidates = candidate_swaps(&target_gate, &state.map, device);
        if candidates.is_empty() {
            return Err(CompileError::RoutingStuck {
                remaining_gates: state.unrouted.len(),
            });
        }

        // Line 7: evaluate the SWAP selection criteria.
        let force_progress = inserted_swaps >= force_progress_after;
        let chosen = select_swap(
            &candidates,
            &target_gate,
            &state,
            &busy,
            config,
            force_progress,
            rng,
        );

        // SWAP unitary unifying: merge a circuit gate on the same logical
        // pair into the SWAP if one exists.
        let logical_pair = (state.map.logical(chosen.0), state.map.logical(chosen.1));
        let mut merged = None;
        if config.enable_dressing {
            if let (Some(la), Some(lb)) = logical_pair {
                merged = take_mergeable_gate(&mut state, &mut stages, la, lb);
                if merged.is_some() {
                    // The removal shifted unrouted indices; refresh the
                    // per-qubit index before the swap update reads it.
                    state.rebuild_index();
                }
            }
        }
        let swap_action = SwapAction {
            physical: chosen,
            logical: logical_pair,
            merged,
        };
        busy[chosen.0] += 1;
        busy[chosen.1] += 1;
        stages.last_mut().expect("at least one stage").swap = Some(swap_action);
        inserted_swaps += 1;

        // Lines 8-10: update the map in place and collect newly
        // nearest-neighbour gates (their maintained distance dropped to 1).
        state.apply_swap(chosen.0, chosen.1);
        let mut new_stage_gates = Vec::new();
        let mut i = 0;
        while i < state.unrouted.len() {
            if state.dist[i] == 1 {
                let g = state.remove_gate(i);
                busy[state.map.physical(g.qubit0())] += 1;
                busy[state.map.physical(g.qubit1())] += 1;
                new_stage_gates.push(g);
            } else {
                i += 1;
            }
        }
        state.rebuild_index();
        stages.push(RoutingStage {
            circuit_gates: new_stage_gates,
            swap: None,
        });
    }

    Ok(RoutedCircuit {
        num_physical: device.num_qubits(),
        stages,
        single_qubit_gates,
        initial_map: initial_map.clone(),
        final_map: state.map,
    })
}

/// All candidate physical SWAPs acting on one of the target gate's current
/// physical qubits (Algorithm 1, line 6).
fn candidate_swaps(gate: &Gate, map: &QubitMap, device: &Device) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for &logical in &[gate.qubit0(), gate.qubit1()] {
        let p = map.physical(logical);
        for neighbor in device.neighbors(p) {
            let pair = (p.min(neighbor), p.max(neighbor));
            if !out.contains(&pair) {
                out.push(pair);
            }
        }
    }
    out
}

/// Evaluates the three SWAP selection criteria and picks the best candidate
/// (ties broken uniformly at random, as in the paper).
///
/// Each candidate is scored from the incrementally maintained
/// [`RouterState`]: the target-gate distance and the remaining Eq.-7 cost
/// are evaluated as deltas over the gates the SWAP touches, without cloning
/// the qubit map or rescanning the unrouted set.
#[allow(clippy::too_many_arguments)]
fn select_swap<R: Rng + ?Sized>(
    candidates: &[(usize, usize)],
    target_gate: &Gate,
    state: &RouterState<'_>,
    busy: &[usize],
    config: &RoutingConfig,
    force_progress: bool,
    rng: &mut R,
) -> (usize, usize) {
    #[derive(PartialEq, PartialOrd)]
    struct Score(f64, f64, f64, f64);

    let mut best: Vec<(usize, usize)> = Vec::new();
    let mut best_score: Option<Score> = None;

    for &swap in candidates {
        // Criterion 0 (only in forced-progress mode): the selected gate's
        // distance after the SWAP — guarantees termination.
        let target_distance = f64::from(state.gate_distance_after(target_gate, swap.0, swap.1));
        // Criterion 1: remaining Eq.-7 cost over all unrouted gates — hop
        // counts by default, −log-fidelity-weighted (plus the SWAP's own
        // edge cost) in calibration-aware mode.  On a uniform target the
        // weighted scores are the hop scores shifted by the constant
        // SWAP_NATIVE_COST, so the selection (and its tie set) is identical.
        let remaining_cost = match state.weighted {
            None => state.cost_after_swap(swap.0, swap.1),
            Some(w) => state.weighted_cost_after_swap(w, swap.0, swap.1),
        };
        // Criterion 2: depth proxy — how busy the SWAP's qubits already are.
        let depth_cost = busy[swap.0].max(busy[swap.1]) as f64;
        // Criterion 3: can the SWAP be dressed? (better = lower score)
        let mergeable = if config.enable_dressing {
            match (state.map.logical(swap.0), state.map.logical(swap.1)) {
                (Some(la), Some(lb)) if state.has_mergeable(la, lb) => 0.0,
                _ => 1.0,
            }
        } else {
            1.0
        };
        // The SWAP is inserted "for gate g" (Algorithm 1, line 7): only
        // candidates that bring the target gate closer are competitive, so
        // the target distance leads the comparison; the paper's three
        // criteria order the remaining ties.  (`force_progress` is the
        // defensive fallback mode and uses the same ordering.)
        let _ = force_progress;
        let score = Score(target_distance, remaining_cost, depth_cost, mergeable);
        match &best_score {
            Some(b) if score > *b => {}
            Some(b) if score == *b => best.push(swap),
            _ => {
                best_score = Some(score);
                best = vec![swap];
            }
        }
    }
    best[rng.gen_range(0..best.len())]
}

/// Removes a mergeable canonical gate on `(la, lb)` from wherever it lives
/// (unrouted set first, then placed stages) and returns it.
fn take_mergeable_gate(
    state: &mut RouterState,
    stages: &mut [RoutingStage],
    la: usize,
    lb: usize,
) -> Option<Gate> {
    let pair = (la.min(lb), la.max(lb));
    if !state.has_mergeable(la, lb) {
        return None;
    }
    let is_match =
        |g: &Gate| matches!(g.kind, GateKind::Canonical { .. }) && g.qubit_pair() == pair;
    let taken = if let Some(pos) = state.unrouted.iter().position(is_match) {
        // Order-preserving removal, matching the pre-optimisation router so
        // gate-selection order (and thus results) stay comparable.
        state.total_cost -= f64::from(state.dist[pos]);
        state.dist.remove(pos);
        Some(state.unrouted.remove(pos))
    } else {
        stages.iter_mut().find_map(|stage| {
            stage
                .circuit_gates
                .iter()
                .position(is_match)
                .map(|pos| stage.circuit_gates.remove(pos))
        })
    };
    debug_assert!(taken.is_some(), "mergeable count said a gate exists");
    if taken.is_some() {
        *state.mergeable_counts.entry(pair).or_insert(1) -= 1;
    }
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SolverBudget;
    use crate::mapping::{initial_mapping, MappingConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use twoqan_device::TwoQubitBasis;
    use twoqan_ham::{nnn_heisenberg, nnn_ising, trotter_step, QaoaProblem};

    fn route_with_tabu(
        circuit: &Circuit,
        device: &Device,
        seed: u64,
        config: &RoutingConfig,
    ) -> RoutedCircuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let map = initial_mapping(
            circuit,
            device,
            &MappingConfig::default(),
            &SolverBudget::unlimited(),
            &mut rng,
        )
        .unwrap();
        route(circuit, device, &map, config, &mut rng).unwrap()
    }

    /// Every circuit gate must end up somewhere: as a stage gate or merged
    /// into a dressed SWAP, and every stage gate must be NN under its stage
    /// map, replayed from the initial map through the recorded SWAPs.
    fn check_routing_invariants(routed: &RoutedCircuit, circuit: &Circuit, device: &Device) {
        let placed: usize = routed.placed_circuit_gate_count();
        let merged = routed.dressed_swap_count();
        assert_eq!(
            placed + merged,
            circuit.two_qubit_gate_count(),
            "all two-qubit gates must be placed or merged"
        );
        let mut map = routed.initial_map().clone();
        for stage in &routed.stages {
            for g in &stage.circuit_gates {
                assert!(
                    map.logically_adjacent(device, g.qubit0(), g.qubit1()),
                    "placed gate {g} is not NN under its stage map"
                );
            }
            if let Some(swap) = &stage.swap {
                assert!(
                    device.are_adjacent(swap.physical.0, swap.physical.1),
                    "SWAP on non-adjacent physical qubits"
                );
                assert_eq!(
                    swap.logical,
                    (map.logical(swap.physical.0), map.logical(swap.physical.1)),
                    "a SWAP records the logical qubits its stage map puts on its pair"
                );
                if let Some(m) = swap.merged {
                    let (la, lb) = (swap.logical.0.unwrap(), swap.logical.1.unwrap());
                    assert_eq!(m.qubit_pair(), (la.min(lb), la.max(lb)));
                }
                map.apply_physical_swap(swap.physical.0, swap.physical.1);
            }
        }
        assert_eq!(
            &map,
            routed.final_map(),
            "the SWAP replay ends at the final map"
        );
        assert_eq!(
            routed.single_qubit_gates.len(),
            circuit.single_qubit_gate_count()
        );
    }

    #[test]
    fn fully_embeddable_circuit_needs_no_swaps() {
        // A 6-qubit chain on a 2×3 grid embeds perfectly.
        let mut circuit = Circuit::new(6);
        for i in 0..5 {
            circuit.push(Gate::canonical(i, i + 1, 0.0, 0.0, 0.3));
        }
        let device = Device::grid(2, 3, TwoQubitBasis::Cnot);
        let routed = route_with_tabu(&circuit, &device, 3, &RoutingConfig::default());
        assert_eq!(routed.swap_count(), 0);
        assert_eq!(routed.stages.len(), 1);
        check_routing_invariants(&routed, &circuit, &device);
    }

    #[test]
    fn ising_on_grid_uses_few_swaps_and_dresses_them() {
        let circuit = trotter_step(&nnn_ising(6, 11), 1.0);
        let device = Device::grid(2, 3, TwoQubitBasis::Cnot);
        let routed = route_with_tabu(&circuit, &device, 7, &RoutingConfig::default());
        check_routing_invariants(&routed, &circuit, &device);
        // The Fig. 3 walk-through needs only 2 SWAPs for this family of
        // 6-qubit problems; allow a little slack for the random coefficients.
        assert!(
            routed.swap_count() <= 4,
            "too many SWAPs: {}",
            routed.swap_count()
        );
        assert!(routed.swap_count() >= 1);
    }

    #[test]
    fn heisenberg_on_montreal_routes_all_gates() {
        let circuit = trotter_step(&nnn_heisenberg(12, 5), 1.0);
        let device = Device::montreal();
        let routed = route_with_tabu(&circuit, &device, 1, &RoutingConfig::default());
        check_routing_invariants(&routed, &circuit, &device);
        assert!(routed.swap_count() > 0);
        // Most SWAPs should be dressed for dense NNN problems.
        assert!(routed.dressed_swap_count() * 2 >= routed.swap_count());
    }

    #[test]
    fn qaoa_on_aspen_routes_all_gates() {
        let problem = QaoaProblem::random_regular(12, 3, 9);
        let circuit = problem
            .circuit(&[(0.6, 0.4)], false)
            .unify_same_pair_gates();
        let device = Device::aspen();
        let routed = route_with_tabu(&circuit, &device, 2, &RoutingConfig::default());
        check_routing_invariants(&routed, &circuit, &device);
    }

    #[test]
    fn disabling_dressing_produces_plain_swaps_only() {
        let circuit = trotter_step(&nnn_ising(10, 3), 1.0);
        let device = Device::montreal();
        let config = RoutingConfig {
            enable_dressing: false,
            ..RoutingConfig::default()
        };
        let routed = route_with_tabu(&circuit, &device, 5, &config);
        check_routing_invariants(&routed, &circuit, &device);
        assert_eq!(routed.dressed_swap_count(), 0);
    }

    #[test]
    fn dressing_reduces_total_two_qubit_operations() {
        let circuit = trotter_step(&nnn_heisenberg(14, 21), 1.0);
        let device = Device::montreal();
        let dressed = route_with_tabu(&circuit, &device, 8, &RoutingConfig::default());
        let plain = route_with_tabu(
            &circuit,
            &device,
            8,
            &RoutingConfig {
                enable_dressing: false,
                ..RoutingConfig::default()
            },
        );
        assert!(
            dressed.total_two_qubit_ops() <= plain.total_two_qubit_ops(),
            "dressing should never increase the operation count ({} vs {})",
            dressed.total_two_qubit_ops(),
            plain.total_two_qubit_ops()
        );
    }

    #[test]
    fn stage_maps_evolve_by_the_recorded_swaps() {
        let circuit = trotter_step(&nnn_ising(8, 2), 1.0);
        let device = Device::montreal();
        let mut rng = StdRng::seed_from_u64(4);
        let map = initial_mapping(
            &circuit,
            &device,
            &MappingConfig::default(),
            &SolverBudget::unlimited(),
            &mut rng,
        )
        .unwrap();
        let routed = route(&circuit, &device, &map, &RoutingConfig::default(), &mut rng).unwrap();
        assert_eq!(routed.initial_map(), &map);
        let (last, inner) = routed.stages.split_last().unwrap();
        assert!(last.swap.is_none());
        let mut replayed = map;
        for stage in inner {
            let swap = stage.swap.as_ref().expect("inner stages end with a SWAP");
            replayed.apply_physical_swap(swap.physical.0, swap.physical.1);
        }
        assert!(routed.swap_count() > 0);
        assert_eq!(&replayed, routed.final_map());
        check_routing_invariants(&routed, &circuit, &device);
    }

    #[test]
    fn calibration_aware_routing_matches_hop_count_on_uniform_target() {
        let circuit = trotter_step(&nnn_heisenberg(12, 5), 1.0);
        let device = Device::montreal();
        assert!(device.target().is_uniform());
        let aware = RoutingConfig {
            cost: CostModel::CalibrationAware,
            ..RoutingConfig::default()
        };
        for seed in [1u64, 4, 9] {
            let hop = route_with_tabu(&circuit, &device, seed, &RoutingConfig::default());
            let cal = route_with_tabu(&circuit, &device, seed, &aware);
            assert_eq!(
                hop, cal,
                "seed {seed}: uniform target must be bit-identical"
            );
        }
    }

    #[test]
    fn calibration_aware_routing_stays_correct_on_heterogeneous_targets() {
        let circuit = trotter_step(&nnn_heisenberg(12, 5), 1.0);
        let device = Device::montreal().with_heterogeneous_calibration(21);
        let config = RoutingConfig {
            cost: CostModel::CalibrationAware,
            ..RoutingConfig::default()
        };
        let routed = route_with_tabu(&circuit, &device, 3, &config);
        check_routing_invariants(&routed, &circuit, &device);
        assert!(routed.swap_count() > 0);
    }

    #[test]
    fn swap_action_physical_gate_kinds() {
        let plain = SwapAction {
            physical: (2, 3),
            logical: (Some(0), Some(1)),
            merged: None,
        };
        assert_eq!(plain.physical_gate().kind, GateKind::Swap);
        let dressed = SwapAction {
            physical: (2, 3),
            logical: (Some(0), Some(1)),
            merged: Some(Gate::canonical(0, 1, 0.0, 0.0, 0.4)),
        };
        assert!(dressed.is_dressed());
        match dressed.physical_gate().kind {
            GateKind::DressedSwap { zz, .. } => assert!((zz - 0.4).abs() < 1e-12),
            k => panic!("expected a dressed SWAP, got {k:?}"),
        }
    }
}
