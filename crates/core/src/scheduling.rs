//! Permutation-aware hybrid gate scheduling (Algorithm 2, §III-D).
//!
//! The scheduler receives the router's output — the qubit maps `{φ_i}` and
//! the gates assigned to each map — and produces a cycle-by-cycle schedule
//! over *physical* qubits:
//!
//! 1. The circuit gates that are nearest-neighbour in the initial map (plus
//!    all single-qubit gates) have no dependencies at all thanks to the
//!    operator-permutation freedom; they are scheduled with a greedy graph
//!    colouring of their qubit-conflict graph.
//! 2. The remaining circuit gates and the routing SWAPs are scheduled
//!    as-late-as-possible (ALAP): cycles are built from the *end* of the
//!    circuit backwards, starting from the final qubit map.  A circuit gate
//!    can be placed in any cycle in which its logical qubits sit on adjacent
//!    physical qubits; a SWAP can be placed only after every circuit gate
//!    that depends on it (and every later overlapping SWAP) has been placed,
//!    at which point the working map is rolled back across it.
//! 3. Finally the whole gate sequence is compacted with an ASAP repacking
//!    that preserves the per-qubit gate order (and therefore the circuit
//!    semantics) while minimising depth.

use crate::mapping::QubitMap;
use crate::routing::{RoutedCircuit, SwapAction};
use twoqan_circuit::{Gate, ScheduledCircuit};
use twoqan_graphs::coloring::{greedy_coloring, ColoringStrategy};
use twoqan_graphs::Graph;

/// Scheduling strategy (the order-respecting variant exists for ablation
/// studies and mirrors what a generic compiler would do with the routed
/// gate list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingStrategy {
    /// The paper's hybrid graph-colouring + dependency-ALAP scheduler.
    #[default]
    Hybrid,
    /// Respect the routed order stage by stage (generic behaviour).
    OrderRespecting,
}

/// Schedules a routed circuit onto physical qubits.
pub fn schedule(
    routed: &RoutedCircuit,
    device: &twoqan_device::Device,
    strategy: SchedulingStrategy,
) -> ScheduledCircuit {
    let ordered = match strategy {
        SchedulingStrategy::Hybrid => hybrid_order(routed, device),
        SchedulingStrategy::OrderRespecting => stage_order(routed),
    };
    // Final compaction: ASAP repacking preserves the per-qubit order of the
    // produced sequence (hence its semantics) while minimising depth.
    ScheduledCircuit::asap_from_gates(routed.num_physical, &ordered)
}

/// The gate sequence in plain stage order (φ_0 gates, swap_0, φ_1 gates, …),
/// replaying the SWAPs from the initial map to place each stage's gates.
fn stage_order(routed: &RoutedCircuit) -> Vec<Gate> {
    let mut out = Vec::new();
    let mut map = routed.initial_map().clone();
    for g in &routed.single_qubit_gates {
        out.push(place_single(g, &map));
    }
    for stage in &routed.stages {
        for g in &stage.circuit_gates {
            out.push(place_two_qubit(g, &map));
        }
        if let Some(swap) = &stage.swap {
            out.push(swap.physical_gate());
            map.apply_physical_swap(swap.physical.0, swap.physical.1);
        }
    }
    out
}

/// The hybrid schedule: graph colouring for the initial-map gates followed
/// by the reversed ALAP cycles for everything else.
fn hybrid_order(routed: &RoutedCircuit, device: &twoqan_device::Device) -> Vec<Gate> {
    let mut out = colour_initial_stage(routed);
    let alap_cycles = alap_cycles(routed, device);
    // The ALAP pass builds cycles from the end of the circuit backwards;
    // appending them in reverse order restores forward time.
    for cycle in alap_cycles.into_iter().rev() {
        out.extend(cycle);
    }
    out
}

/// Line 1 of Algorithm 2: colour the conflict graph of the gates that are
/// nearest-neighbour in the initial map (plus the single-qubit gates, which
/// are also dependency-free).
fn colour_initial_stage(routed: &RoutedCircuit) -> Vec<Gate> {
    let initial_map = routed.initial_map();
    let mut placed: Vec<Gate> = routed
        .single_qubit_gates
        .iter()
        .map(|g| place_single(g, initial_map))
        .collect();
    placed.extend(
        routed.stages[0]
            .circuit_gates
            .iter()
            .map(|g| place_two_qubit(g, initial_map)),
    );
    if placed.is_empty() {
        return Vec::new();
    }
    // Conflict graph: gates sharing a physical qubit cannot share a cycle.
    let mut conflicts = Graph::new(placed.len());
    for i in 0..placed.len() {
        for j in (i + 1)..placed.len() {
            if placed[i].overlaps(&placed[j]) {
                conflicts.add_edge(i, j);
            }
        }
    }
    let colouring = greedy_coloring(&conflicts, ColoringStrategy::LargestFirst);
    let mut out = Vec::with_capacity(placed.len());
    for class in colouring.classes() {
        for idx in class {
            out.push(placed[idx]);
        }
    }
    out
}

/// Lines 2–14 of Algorithm 2: build cycles from the end of the circuit
/// backwards.  Returns the cycles in reversed order (index 0 is the last
/// cycle of the circuit).
fn alap_cycles(routed: &RoutedCircuit, device: &twoqan_device::Device) -> Vec<Vec<Gate>> {
    // Pending circuit gates from stages ≥ 1, tagged with their stage index.
    let mut pending_gates: Vec<(usize, Gate)> = routed
        .stages
        .iter()
        .enumerate()
        .skip(1)
        .flat_map(|(i, s)| s.circuit_gates.iter().map(move |g| (i, *g)))
        .collect();
    // Pending SWAPs, tagged with their stage index, in stage order (at most
    // one per stage, so the stage indices strictly increase).
    let mut pending_swaps: Vec<(usize, &SwapAction)> = routed
        .stages
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.swap.as_ref().map(|sw| (i, sw)))
        .collect();

    let mut current_map: QubitMap = routed.final_map().clone();
    let mut cycles: Vec<Vec<Gate>> = Vec::new();
    // Gates placed in the cycle currently under construction.  Together with
    // the still-pending gates these are exactly the gates that were pending
    // when the cycle began, so SWAP dependency checks scan the two worklists
    // instead of cloning a per-cycle snapshot (the former made the pass
    // O(stages²) in allocations on swap-heavy circuits).
    let mut placed_this_cycle: Vec<(usize, Gate)> = Vec::new();

    while !pending_gates.is_empty() || !pending_swaps.is_empty() {
        let mut cycle: Vec<Gate> = Vec::new();
        let mut busy = vec![false; routed.num_physical];
        let mut swaps_to_roll_back: Vec<(usize, usize)> = Vec::new();
        placed_this_cycle.clear();

        // Circuit gates: schedulable wherever their logical qubits are
        // adjacent under the current map and the physical qubits are free.
        let mut i = 0;
        while i < pending_gates.len() {
            let (stage, gate) = pending_gates[i];
            let (pa, pb) = (
                current_map.physical(gate.qubit0()),
                current_map.physical(gate.qubit1()),
            );
            let adjacent = device.are_adjacent(pa, pb);
            if adjacent && !busy[pa] && !busy[pb] {
                busy[pa] = true;
                busy[pb] = true;
                cycle.push(Gate::two(gate.kind, pa, pb));
                placed_this_cycle.push((stage, gate));
                pending_gates.swap_remove(i);
            } else {
                i += 1;
            }
        }

        // SWAPs, in decreasing stage order.  A SWAP waits for every later
        // SWAP and for every pending gate that depends on it (gates placed
        // this cycle still count as blocking), so the first SWAP that
        // cannot be placed ends the pass: every earlier one waits for it.
        while let Some(&(stage, swap)) = pending_swaps.last() {
            let (pa, pb) = swap.physical;
            if busy[pa] || busy[pb] {
                break;
            }
            // Dependent circuit gates: gates from later stages acting on the
            // logical qubits this SWAP moves.
            let moved = [swap.logical.0, swap.logical.1];
            let blocks = |(gstage, g): &(usize, Gate)| {
                *gstage > stage && moved.iter().flatten().any(|&l| g.acts_on(l))
            };
            if pending_gates.iter().any(blocks) || placed_this_cycle.iter().any(blocks) {
                break;
            }
            busy[pa] = true;
            busy[pb] = true;
            pending_swaps.pop();
            cycle.push(swap.physical_gate());
            swaps_to_roll_back.push((pa, pb));
        }

        if cycle.is_empty() {
            // Defensive fallback (unreachable for router-produced inputs):
            // flush everything in stage order to guarantee termination.
            for (_, g) in pending_gates.drain(..) {
                let (pa, pb) = (
                    current_map.physical(g.qubit0()),
                    current_map.physical(g.qubit1()),
                );
                cycle.push(Gate::two(g.kind, pa, pb));
            }
            for (_, sw) in pending_swaps.drain(..) {
                cycle.push(sw.physical_gate());
            }
            cycles.push(cycle);
            break;
        }

        // Roll the working map back across the SWAPs scheduled this cycle
        // (they are pairwise disjoint, so the order does not matter).
        for (pa, pb) in swaps_to_roll_back {
            current_map.apply_physical_swap(pa, pb);
        }
        cycles.push(cycle);
    }

    cycles
}

/// Places a logical single-qubit gate on its physical qubit under `map`.
fn place_single(gate: &Gate, map: &QubitMap) -> Gate {
    Gate::single(gate.kind, map.physical(gate.qubit0()))
}

/// Places a logical two-qubit gate on its physical pair under `map`.
fn place_two_qubit(gate: &Gate, map: &QubitMap) -> Gate {
    Gate::two(
        gate.kind,
        map.physical(gate.qubit0()),
        map.physical(gate.qubit1()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SolverBudget;
    use twoqan_circuit::HardwareMetrics;
    use twoqan_math::cost::TwoQubitBasisCost;

    /// The number of cycles holding a two-qubit gate.
    fn two_qubit_depth(s: &ScheduledCircuit) -> usize {
        HardwareMetrics::of(s, TwoQubitBasisCost::Cnot).application_two_qubit_depth
    }
    use crate::mapping::{initial_mapping, CostModel, MappingConfig};
    use crate::routing::{route, RoutingConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use twoqan_circuit::{Circuit, GateKind};
    use twoqan_device::{Device, TwoQubitBasis};
    use twoqan_graphs::TabuConfig;
    use twoqan_ham::{nnn_heisenberg, nnn_ising, trotter_step, QaoaProblem};

    fn route_circuit(circuit: &Circuit, device: &Device, seed: u64) -> RoutedCircuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let map = initial_mapping(
            circuit,
            device,
            &MappingConfig::default(),
            &SolverBudget::unlimited(),
            &mut rng,
        )
        .unwrap();
        route(circuit, device, &map, &RoutingConfig::default(), &mut rng).unwrap()
    }

    /// The scheduled circuit must contain exactly the routed operations and
    /// every two-qubit gate must sit on a device edge.
    fn check_schedule(
        s: &ScheduledCircuit,
        routed: &RoutedCircuit,
        circuit: &Circuit,
        device: &Device,
    ) {
        assert!(s.is_valid());
        assert_eq!(
            s.two_qubit_gate_count(),
            routed.total_two_qubit_ops(),
            "scheduled two-qubit op count must match the routed count"
        );
        assert_eq!(
            s.gate_count(),
            routed.total_two_qubit_ops() + circuit.single_qubit_gate_count()
        );
        for g in s.iter_gates().filter(|g| g.is_two_qubit()) {
            assert!(
                device.are_adjacent(g.qubit0(), g.qubit1()),
                "gate {g} is not on a device edge"
            );
        }
        // The multiset of application unitaries is preserved (each canonical
        // gate appears exactly once, either standalone or inside a dressed SWAP).
        let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
        for g in s.iter_gates() {
            match g.kind {
                GateKind::Canonical { .. } | GateKind::DressedSwap { .. } => {
                    *kinds.entry("app".into()).or_default() += 1;
                }
                GateKind::Swap => {
                    *kinds.entry("swap".into()).or_default() += 1;
                }
                _ => {}
            }
        }
        let apps = kinds.get("app").copied().unwrap_or(0);
        let plain_swaps = kinds.get("swap").copied().unwrap_or(0);
        assert_eq!(apps, circuit.two_qubit_gate_count());
        assert_eq!(
            plain_swaps,
            routed.swap_count() - routed.dressed_swap_count()
        );
    }

    #[test]
    fn hybrid_schedule_covers_all_gates_for_ising_on_montreal() {
        let circuit = trotter_step(&nnn_ising(10, 3), 1.0);
        let device = Device::montreal();
        let routed = route_circuit(&circuit, &device, 1);
        let s = schedule(&routed, &device, SchedulingStrategy::Hybrid);
        check_schedule(&s, &routed, &circuit, &device);
    }

    #[test]
    fn hybrid_schedule_is_never_deeper_than_order_respecting() {
        for seed in [1u64, 2, 3] {
            let circuit = trotter_step(&nnn_heisenberg(12, seed), 1.0);
            let device = Device::montreal();
            let routed = route_circuit(&circuit, &device, seed);
            let hybrid = schedule(&routed, &device, SchedulingStrategy::Hybrid);
            let ordered = schedule(&routed, &device, SchedulingStrategy::OrderRespecting);
            check_schedule(&hybrid, &routed, &circuit, &device);
            check_schedule(&ordered, &routed, &circuit, &device);
            let (hybrid, ordered) = (two_qubit_depth(&hybrid), two_qubit_depth(&ordered));
            assert!(
                hybrid <= ordered + 1,
                "hybrid depth {hybrid} should not exceed ordered depth {ordered} (seed {seed})"
            );
        }
    }

    #[test]
    fn qaoa_schedule_on_aspen_is_hardware_compatible() {
        let problem = QaoaProblem::random_regular(10, 3, 4);
        let circuit = problem.circuit(&[(0.6, 0.4)], true).unify_same_pair_gates();
        let device = Device::aspen();
        let routed = route_circuit(&circuit, &device, 6);
        let s = schedule(&routed, &device, SchedulingStrategy::Hybrid);
        check_schedule(&s, &routed, &circuit, &device);
    }

    #[test]
    fn no_swap_circuit_schedules_with_colouring_only() {
        let mut circuit = Circuit::new(6);
        for i in 0..5 {
            circuit.push(twoqan_circuit::Gate::canonical(i, i + 1, 0.0, 0.0, 0.3));
        }
        let device = Device::grid(2, 3, TwoQubitBasis::Cnot);
        let routed = route_circuit(&circuit, &device, 9);
        assert_eq!(routed.swap_count(), 0);
        let s = schedule(&routed, &device, SchedulingStrategy::Hybrid);
        check_schedule(&s, &routed, &circuit, &device);
        // A 5-gate chain needs at least 2 and at most 3 cycles.
        assert!((2..=3).contains(&two_qubit_depth(&s)));
    }

    /// Routes `circuit` with a cheap single-restart Tabu placement: the
    /// scheduler tests need swap-heavy routings, not good ones.
    fn route_cheaply(
        circuit: &Circuit,
        device: &Device,
        cost: CostModel,
        seed: u64,
    ) -> RoutedCircuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mapping = MappingConfig {
            tabu: TabuConfig {
                max_iterations: 20,
                restarts: 1,
                ..TabuConfig::default()
            },
            cost,
            ..MappingConfig::default()
        };
        let map = initial_mapping(
            circuit,
            device,
            &mapping,
            &SolverBudget::unlimited(),
            &mut rng,
        )
        .unwrap();
        let routing = RoutingConfig {
            cost,
            ..RoutingConfig::default()
        };
        route(circuit, device, &map, &routing, &mut rng).unwrap()
    }

    #[test]
    fn swap_heavy_qaoa_schedule_is_pinned() {
        // QAOA-REG-3 n=200 on a heterogeneous 15×14 grid, routed with the
        // calibration-aware cost model: hundreds of routing stages, so the
        // ALAP SWAP pass and the stage-order replay both do real work.
        // Digests recorded before the linear SWAP pass and the map-free
        // routing stages landed; both must reproduce them bit for bit.
        let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
        let circuit = QaoaProblem::random_regular(200, 3, 17)
            .circuit(&[(gamma, beta)], false)
            .unify_same_pair_gates();
        let device = Device::grid(15, 14, TwoQubitBasis::Cnot).with_heterogeneous_calibration(23);
        let routed = route_cheaply(&circuit, &device, CostModel::CalibrationAware, 5);
        assert!(
            routed.swap_count() > 500,
            "only {} SWAPs",
            routed.swap_count()
        );
        let digest = |strategy| {
            let s = schedule(&routed, &device, strategy);
            check_schedule(&s, &routed, &circuit, &device);
            crate::hash::fnv1a_64(&format!("{s:?}"))
        };
        assert_eq!(
            (
                digest(SchedulingStrategy::Hybrid),
                digest(SchedulingStrategy::OrderRespecting)
            ),
            (18418327156024005374, 8767658934720339605)
        );
    }

    /// The ALAP SWAP pass as it stood before the linear pass: for every
    /// pending SWAP it rescans all pending SWAPs for a later one.  Kept as
    /// the oracle the production pass must agree with.
    fn alap_cycles_full_scan(routed: &RoutedCircuit, device: &Device) -> Vec<Vec<Gate>> {
        let mut pending_gates: Vec<(usize, Gate)> = routed
            .stages
            .iter()
            .enumerate()
            .skip(1)
            .flat_map(|(i, s)| s.circuit_gates.iter().map(move |g| (i, *g)))
            .collect();
        let mut pending_swaps: Vec<(usize, crate::routing::SwapAction)> = routed
            .stages
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.swap.clone().map(|sw| (i, sw)))
            .collect();
        let mut current_map: QubitMap = routed.final_map().clone();
        let mut cycles: Vec<Vec<Gate>> = Vec::new();
        let mut placed_this_cycle: Vec<(usize, Gate)> = Vec::new();
        while !pending_gates.is_empty() || !pending_swaps.is_empty() {
            let mut cycle: Vec<Gate> = Vec::new();
            let mut busy = vec![false; routed.num_physical];
            let mut swaps_to_roll_back: Vec<(usize, usize)> = Vec::new();
            placed_this_cycle.clear();
            let mut i = 0;
            while i < pending_gates.len() {
                let (stage, gate) = pending_gates[i];
                let (pa, pb) = (
                    current_map.physical(gate.qubit0()),
                    current_map.physical(gate.qubit1()),
                );
                if device.are_adjacent(pa, pb) && !busy[pa] && !busy[pb] {
                    busy[pa] = true;
                    busy[pb] = true;
                    cycle.push(Gate::two(gate.kind, pa, pb));
                    placed_this_cycle.push((stage, gate));
                    pending_gates.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            let mut s = pending_swaps.len();
            while s > 0 {
                s -= 1;
                let (stage, ref swap) = pending_swaps[s];
                if pending_swaps.iter().any(|(other, _)| *other > stage) {
                    continue;
                }
                let (pa, pb) = swap.physical;
                if busy[pa] || busy[pb] {
                    continue;
                }
                let moved = [swap.logical.0, swap.logical.1];
                let blocks = |(gstage, g): &(usize, Gate)| {
                    *gstage > stage && moved.iter().flatten().any(|&l| g.acts_on(l))
                };
                if pending_gates.iter().any(blocks) || placed_this_cycle.iter().any(blocks) {
                    continue;
                }
                busy[pa] = true;
                busy[pb] = true;
                let (_, swap) = pending_swaps.remove(s);
                cycle.push(swap.physical_gate());
                swaps_to_roll_back.push((pa, pb));
            }
            if cycle.is_empty() {
                for (_, g) in pending_gates.drain(..) {
                    let (pa, pb) = (
                        current_map.physical(g.qubit0()),
                        current_map.physical(g.qubit1()),
                    );
                    cycle.push(Gate::two(g.kind, pa, pb));
                }
                for (_, sw) in pending_swaps.drain(..) {
                    cycle.push(sw.physical_gate());
                }
                cycles.push(cycle);
                break;
            }
            for (pa, pb) in swaps_to_roll_back {
                current_map.apply_physical_swap(pa, pb);
            }
            cycles.push(cycle);
        }
        cycles
    }

    #[test]
    fn alap_cycles_match_the_full_scan_oracle() {
        let devices = [
            Device::montreal(),
            Device::sycamore(),
            Device::grid(6, 6, TwoQubitBasis::Cnot),
            Device::grid(5, 8, TwoQubitBasis::Cnot).with_heterogeneous_calibration(3),
        ];
        let mut swaps = 0;
        for case in 0..60u64 {
            let device = &devices[case as usize % devices.len()];
            let n = (8 + (case as usize * 7) % 33).min(device.num_qubits());
            let circuit = match case % 3 {
                0 => trotter_step(&nnn_heisenberg(n, case), 1.0),
                1 => trotter_step(&nnn_ising(n, case), 1.0),
                _ => QaoaProblem::random_regular(n - n % 2, 3, case)
                    .circuit(&[(0.6, 0.4)], false)
                    .unify_same_pair_gates(),
            };
            let cost = if device.target().is_uniform() {
                CostModel::HopCount
            } else {
                CostModel::CalibrationAware
            };
            let routed = route_cheaply(&circuit, device, cost, case);
            swaps += routed.swap_count();
            assert_eq!(
                alap_cycles(&routed, device),
                alap_cycles_full_scan(&routed, device),
                "case {case}: n={n} on {}",
                device.name()
            );
        }
        assert!(swaps > 1000, "the cases routed only {swaps} SWAPs");
    }

    #[test]
    fn single_qubit_gates_are_placed_under_the_initial_map() {
        let circuit = trotter_step(&nnn_ising(8, 5), 1.0);
        let device = Device::montreal();
        let routed = route_circuit(&circuit, &device, 11);
        let s = schedule(&routed, &device, SchedulingStrategy::Hybrid);
        let single_count = s.iter_gates().filter(|g| !g.is_two_qubit()).count();
        assert_eq!(single_count, 8);
        let map = routed.initial_map();
        // Every single-qubit gate must sit on a physical qubit that hosts a
        // logical qubit in the initial map.
        for g in s.iter_gates().filter(|g| !g.is_two_qubit()) {
            assert!(map.logical(g.qubit0()).is_some());
        }
    }
}
