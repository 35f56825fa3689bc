//! The baseline compiler stages as [`Pass`]es over the shared
//! [`CompilationContext`].
//!
//! Every baseline is a pipeline built from these passes plus the shared
//! [`UnifyPass`](twoqan::UnifyPass) / [`DecomposePass`](twoqan::DecomposePass)
//! from `twoqan`:
//!
//! * Qiskit-like — `[unify, trivial-placement, ordered-routing(0), asap-schedule, decompose]`
//! * t|ket⟩-like — `[unify, line-placement, ordered-routing(5), asap-schedule, decompose]`
//! * Paulihedral-like — `[unify, line-placement, ordered-routing(3), asap-schedule, decompose]`
//! * IC-QAOA — `[unify, qap-annealing-placement, commutation-routing, asap-schedule, decompose]`
//! * NoMap — `[unify, color-schedule, decompose]` (deviceless)

use std::collections::VecDeque;
use twoqan::pipeline::{CompilationContext, Pass};
use twoqan::{CompileError, QubitMap};
use twoqan_circuit::{Circuit, Gate, ScheduledCircuit};
use twoqan_device::Device;
use twoqan_graphs::{simulated_annealing, AnnealingConfig, QapProblem};

/// The order-respecting baselines' initial-placement pass: either the
/// trivial identity placement (Qiskit-like) or placement of logical qubits
/// along a BFS path of the device (t|ket⟩'s LinePlacement).
#[derive(Debug, Clone, Copy)]
pub struct PlacementPass {
    line: bool,
}

impl PlacementPass {
    /// Creates the pass; `line` selects line placement over the trivial
    /// identity placement.
    pub fn new(line: bool) -> Self {
        Self { line }
    }
}

impl Pass for PlacementPass {
    fn name(&self) -> &'static str {
        if self.line {
            "line-placement"
        } else {
            "trivial-placement"
        }
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        let device = ctx.device_for(self.name())?;
        let placement = if self.line {
            line_placement(&ctx.circuit, device)
        } else {
            (0..ctx.circuit.num_qubits()).collect::<Vec<usize>>()
        };
        ctx.set_placement(QubitMap::from_assignment(&placement, device.num_qubits()));
        Ok(())
    }
}

/// The IC-QAOA initial-placement pass: the same QAP formulation 2QAN uses,
/// solved with simulated annealing (a lighter-weight heuristic than Tabu
/// search), drawing from the context RNG.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnnealingPlacementPass;

impl Pass for AnnealingPlacementPass {
    fn name(&self) -> &'static str {
        "qap-annealing-placement"
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        let device = ctx.device_for(self.name())?;
        // QAP placement with zero-flow padding so qubits can occupy any
        // hardware location.
        let qap = QapProblem::from_interactions(
            device.num_qubits(),
            &ctx.circuit.interaction_pairs(),
            device.distances(),
        );
        let solution = simulated_annealing(
            &qap,
            &AnnealingConfig::default(),
            None,
            &ctx.budget,
            &mut ctx.rng,
        );
        let placement = solution.assignment[..ctx.circuit.num_qubits()].to_vec();
        ctx.set_placement(QubitMap::from_assignment(&placement, device.num_qubits()));
        Ok(())
    }
}

/// The order-respecting routing pass: routes the circuit gate by gate in
/// input order, inserting SWAPs whenever the next two-qubit gate is not
/// nearest-neighbour (no look-ahead = Qiskit-like greedy, look-ahead ≥ 1 =
/// t|ket⟩-like scored SWAP selection).
#[derive(Debug, Clone, Copy)]
pub struct OrderedRoutingPass {
    lookahead: usize,
}

impl OrderedRoutingPass {
    /// Creates the pass with the given look-ahead window.
    pub fn new(lookahead: usize) -> Self {
        Self { lookahead }
    }
}

impl Pass for OrderedRoutingPass {
    fn name(&self) -> &'static str {
        "ordered-routing"
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        let device = ctx.device_for(self.name())?;
        let mut placement = ctx.layout_for(self.name())?.assignment().to_vec();
        let gates = route_in_order(&ctx.circuit, device, &mut placement, self.lookahead)?;
        ctx.layout = Some(QubitMap::from_assignment(&placement, device.num_qubits()));
        ctx.physical_gates = Some(gates);
        Ok(())
    }
}

/// The IC-QAOA commutation-aware routing pass: gates are routed in input
/// order, but after every SWAP **all** remaining gates that have become
/// nearest-neighbour are scheduled immediately (commuting terms may execute
/// in any order); SWAPs are chosen greedily to shorten the current gate's
/// distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommutationRoutingPass;

impl Pass for CommutationRoutingPass {
    fn name(&self) -> &'static str {
        "commutation-routing"
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        let device = ctx.device_for(self.name())?;
        let mut placement = ctx.layout_for(self.name())?.assignment().to_vec();
        let mut physical: Vec<Gate> = Vec::new();
        // Single-qubit gates first (they commute with the routing decisions
        // at the level of qubit placement bookkeeping).
        for g in ctx.circuit.single_qubit_gates() {
            physical.push(Gate::single(g.kind, placement[g.qubit0()]));
        }
        let mut pending: Vec<Gate> = ctx.circuit.two_qubit_gates().copied().collect();
        // Commutation awareness: flush everything that is already NN.
        flush_nearest_neighbours(&mut pending, &placement, device, &mut physical);
        let mut guard = 0usize;
        while !pending.is_empty() {
            let gate = pending[0];
            let (u, v) = (gate.qubit0(), gate.qubit1());
            let (pu, pv) = (placement[u], placement[v]);
            // Greedy: move `u` one hop towards `v`.
            let next = device
                .neighbors(pu)
                .into_iter()
                .min_by_key(|&n| device.distance(n, pv))
                .expect("connected device");
            apply_swap(&mut placement, (pu, next));
            physical.push(Gate::swap(pu.min(next), pu.max(next)));
            flush_nearest_neighbours(&mut pending, &placement, device, &mut physical);
            guard += 1;
            if guard > device.num_qubits() * ctx.circuit.two_qubit_gate_count().max(4) * 4 {
                return Err(CompileError::PassFailed {
                    pass: self.name(),
                    reason: format!(
                        "routing failed to converge with {} gates pending",
                        pending.len()
                    ),
                });
            }
        }
        ctx.layout = Some(QubitMap::from_assignment(&placement, device.num_qubits()));
        ctx.physical_gates = Some(physical);
        Ok(())
    }
}

/// The dependency-respecting ASAP scheduling pass over a routed physical
/// gate list.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsapSchedulePass;

impl Pass for AsapSchedulePass {
    fn name(&self) -> &'static str {
        "asap-schedule"
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        let gates = ctx
            .physical_gates
            .as_ref()
            .ok_or(CompileError::MissingPrerequisite {
                pass: self.name(),
                needs: "a routed physical gate list (run a routing pass first)",
            })?;
        let num_qubits = ctx
            .device
            .map_or(ctx.circuit.num_qubits(), Device::num_qubits);
        ctx.schedule = Some(ScheduledCircuit::asap_from_gates(num_qubits, gates));
        Ok(())
    }
}

/// The connectivity-unconstrained graph-colouring scheduling pass (the
/// NoMap baseline): gates sharing a qubit get different colours; colour
/// classes become cycles.  Runs deviceless, over the circuit's own qubits.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColorSchedulePass;

impl Pass for ColorSchedulePass {
    fn name(&self) -> &'static str {
        "color-schedule"
    }

    fn run(&self, ctx: &mut CompilationContext<'_>) -> Result<(), CompileError> {
        let identity: Vec<usize> = (0..ctx.circuit.num_qubits()).collect();
        ctx.set_placement(QubitMap::from_assignment(
            &identity,
            ctx.circuit.num_qubits(),
        ));
        ctx.schedule = Some(crate::nomap::color_schedule(&ctx.circuit));
        Ok(())
    }
}

/// Places logical qubits along a long path of the device (an approximation
/// of t|ket⟩'s LinePlacement): physical qubits are visited in BFS order from
/// qubit 0 and assigned to logical qubits in the order they first appear in
/// the circuit's interaction list.
fn line_placement(circuit: &Circuit, device: &Device) -> Vec<usize> {
    // Order logical qubits by first appearance.
    let mut logical_order = Vec::new();
    for g in circuit.two_qubit_gates() {
        for q in [g.qubit0(), g.qubit1()] {
            if !logical_order.contains(&q) {
                logical_order.push(q);
            }
        }
    }
    for q in 0..circuit.num_qubits() {
        if !logical_order.contains(&q) {
            logical_order.push(q);
        }
    }
    // BFS over the device to obtain a connected visiting order.
    let mut visited = vec![false; device.num_qubits()];
    let mut physical_order = Vec::new();
    let mut queue = VecDeque::from([0usize]);
    visited[0] = true;
    while let Some(p) = queue.pop_front() {
        physical_order.push(p);
        for n in device.neighbors(p) {
            if !visited[n] {
                visited[n] = true;
                queue.push_back(n);
            }
        }
    }
    let mut placement = vec![0usize; circuit.num_qubits()];
    for (idx, &logical) in logical_order.iter().enumerate() {
        placement[logical] = physical_order[idx];
    }
    placement
}

/// Routes the circuit gate by gate in input order, inserting SWAPs whenever
/// the next two-qubit gate is not nearest-neighbour.  Returns the physical
/// gate sequence (SWAPs + circuit gates + single-qubit gates), or
/// [`CompileError::RoutingStuck`] if a gate cannot be made adjacent within
/// the SWAP budget (impossible on the connected topologies `Device`
/// accepts — surfaced as an error rather than a panic so a stuck pipeline
/// job fails in place instead of tearing down a whole batch).
fn route_in_order(
    circuit: &Circuit,
    device: &Device,
    placement: &mut [usize],
    lookahead: usize,
) -> Result<Vec<Gate>, CompileError> {
    let gates: Vec<Gate> = circuit.iter().copied().collect();
    let mut out = Vec::new();
    for (idx, gate) in gates.iter().enumerate() {
        if !gate.is_two_qubit() {
            out.push(Gate::single(gate.kind, placement[gate.qubit0()]));
            continue;
        }
        let (u, v) = (gate.qubit0(), gate.qubit1());
        // Insert SWAPs until the pair is adjacent.
        let mut guard = 0usize;
        while !device.are_adjacent(placement[u], placement[v]) {
            let swap = choose_swap(&gates[idx..], placement, device, u, v, lookahead);
            apply_swap(placement, swap);
            out.push(Gate::swap(swap.0, swap.1));
            guard += 1;
            if guard > device.num_qubits() * 4 {
                return Err(CompileError::RoutingStuck {
                    remaining_gates: gates[idx..].iter().filter(|g| g.is_two_qubit()).count(),
                });
            }
        }
        out.push(Gate::two(gate.kind, placement[u], placement[v]));
    }
    Ok(out)
}

/// Chooses the next SWAP for the front gate `(u, v)`.
fn choose_swap(
    remaining: &[Gate],
    placement: &[usize],
    device: &Device,
    u: usize,
    v: usize,
    lookahead: usize,
) -> (usize, usize) {
    let (pu, pv) = (placement[u], placement[v]);
    if lookahead == 0 {
        // Qiskit-like: move `u` one hop along a shortest path towards `v`.
        let next = device
            .neighbors(pu)
            .into_iter()
            .min_by_key(|&n| device.distance(n, pv))
            .expect("connected devices have neighbours");
        return (pu.min(next), pu.max(next));
    }
    // t|ket⟩-like: consider every SWAP adjacent to either endpoint, score by
    // the front gate's distance after the SWAP plus the summed distances of
    // the next `lookahead` two-qubit gates.
    let mut candidates = Vec::new();
    for &p in &[pu, pv] {
        for n in device.neighbors(p) {
            let pair = (p.min(n), p.max(n));
            if !candidates.contains(&pair) {
                candidates.push(pair);
            }
        }
    }
    let score = |swap: (usize, usize)| -> (u32, u32) {
        let mut trial = placement.to_vec();
        apply_swap(&mut trial, swap);
        let front = device.distance(trial[u], trial[v]);
        let future: u32 = remaining
            .iter()
            .filter(|g| g.is_two_qubit())
            .skip(1)
            .take(lookahead)
            .map(|g| device.distance(trial[g.qubit0()], trial[g.qubit1()]))
            .sum();
        (front, future)
    };
    candidates
        .into_iter()
        .min_by_key(|&swap| score(swap))
        .expect("candidate set is non-empty")
}

/// Moves every pending gate whose qubits are currently adjacent into the
/// physical gate list (commuting terms may be executed in any order).
fn flush_nearest_neighbours(
    pending: &mut Vec<Gate>,
    placement: &[usize],
    device: &Device,
    physical: &mut Vec<Gate>,
) {
    let mut i = 0;
    while i < pending.len() {
        let g = pending[i];
        let (pu, pv) = (placement[g.qubit0()], placement[g.qubit1()]);
        if device.are_adjacent(pu, pv) {
            physical.push(Gate::two(g.kind, pu, pv));
            pending.remove(i);
        } else {
            i += 1;
        }
    }
}

/// Applies a physical SWAP to a `logical → physical` placement vector.
fn apply_swap(placement: &mut [usize], swap: (usize, usize)) {
    for p in placement.iter_mut() {
        if *p == swap.0 {
            *p = swap.1;
        } else if *p == swap.1 {
            *p = swap.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan::pipeline::PassManager;
    use twoqan::{DecomposePass, UnifyPass};
    use twoqan_device::TwoQubitBasis;
    use twoqan_ham::{nnn_heisenberg, trotter_step};

    fn chain_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n - 1 {
            c.push(Gate::canonical(i, i + 1, 0.0, 0.0, 0.3));
        }
        c
    }

    #[test]
    fn placement_pass_names_follow_the_configuration() {
        assert_eq!(PlacementPass::new(true).name(), "line-placement");
        assert_eq!(PlacementPass::new(false).name(), "trivial-placement");
    }

    #[test]
    fn ordered_routing_advances_the_layout() {
        let device = Device::linear(6, TwoQubitBasis::Cnot);
        let mut circuit = Circuit::new(6);
        circuit.push(Gate::canonical(0, 5, 0.0, 0.0, 0.3));
        let pm = PassManager::with_passes(vec![
            Box::new(PlacementPass::new(false)),
            Box::new(OrderedRoutingPass::new(0)),
            Box::new(AsapSchedulePass),
            Box::new(DecomposePass),
        ]);
        let mut ctx = CompilationContext::for_device(circuit, &device, 0);
        pm.run(&mut ctx).unwrap();
        // SWAPs were inserted, and the final layout differs from the initial.
        assert!(ctx.metrics.unwrap().swap_count > 0);
        assert_ne!(
            ctx.layout.unwrap().assignment(),
            ctx.initial_layout.unwrap().assignment()
        );
    }

    #[test]
    fn routing_passes_need_a_placement_first() {
        let device = Device::aspen();
        for pass in [
            Box::new(OrderedRoutingPass::new(0)) as Box<dyn Pass>,
            Box::new(CommutationRoutingPass) as Box<dyn Pass>,
        ] {
            let mut ctx = CompilationContext::for_device(chain_circuit(4), &device, 0);
            let err = pass.run(&mut ctx).unwrap_err();
            assert!(matches!(err, CompileError::MissingPrerequisite { .. }));
        }
    }

    #[test]
    fn asap_schedule_needs_routed_gates() {
        let device = Device::aspen();
        let mut ctx = CompilationContext::for_device(chain_circuit(4), &device, 0);
        let err = AsapSchedulePass.run(&mut ctx).unwrap_err();
        assert!(err.to_string().contains("asap-schedule"));
    }

    #[test]
    fn commutation_routing_pipeline_compiles_heisenberg() {
        let device = Device::montreal();
        let circuit = trotter_step(&nnn_heisenberg(10, 3), 1.0);
        let pm = PassManager::with_passes(vec![
            Box::new(UnifyPass),
            Box::new(AnnealingPlacementPass),
            Box::new(CommutationRoutingPass),
            Box::new(AsapSchedulePass),
            Box::new(DecomposePass),
        ]);
        let mut ctx = CompilationContext::for_device(circuit, &device, 2020);
        let report = pm.run(&mut ctx).unwrap();
        assert_eq!(report.passes.len(), 5);
        let schedule = ctx.schedule.unwrap();
        assert!(schedule
            .iter_gates()
            .filter(|g| g.is_two_qubit())
            .all(|g| device.are_adjacent(g.qubit0(), g.qubit1())));
    }

    #[test]
    fn color_schedule_runs_deviceless() {
        let pm = PassManager::with_passes(vec![
            Box::new(UnifyPass),
            Box::new(ColorSchedulePass),
            Box::new(DecomposePass),
        ]);
        let mut ctx = CompilationContext::deviceless(chain_circuit(5), TwoQubitBasis::Cnot);
        pm.run(&mut ctx).unwrap();
        let metrics = ctx.metrics.unwrap();
        assert_eq!(metrics.swap_count, 0);
        assert_eq!(metrics.hardware_two_qubit_count, 8);
        assert_eq!(
            ctx.initial_layout.unwrap().assignment(),
            (0..5).collect::<Vec<_>>().as_slice()
        );
    }
}
