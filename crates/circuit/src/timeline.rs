//! The duration-aware execution timeline of a scheduled circuit.
//!
//! The cycle-based schedulers ([`ScheduledCircuit`]) treat every gate as one
//! unit cycle.  Real devices are heterogeneous: each native two-qubit gate
//! has its own duration, so the wall-clock picture of a schedule is a *list
//! schedule* over per-qubit availability times.  [`Timeline::schedule`]
//! assigns every gate a start time (earliest instant at which all of its
//! qubits are free) and accumulates per-qubit busy/idle time, producing a
//! real nanosecond timeline the noise model can consume.
//!
//! The construction preserves the per-qubit gate order of the input
//! schedule by definition — each qubit's gates occupy disjoint,
//! monotonically increasing intervals — so the dependency DAG of the
//! circuit is untouched.  When every gate duration is the same unit value,
//! the start times degenerate to exactly the ASAP cycle indices of
//! [`ScheduledCircuit::asap_from_gates`]: the unit-duration timeline *is*
//! the cycle schedule.

use crate::gate::Gate;
use crate::moment::ScheduledCircuit;

/// One timed gate: its index into the schedule's gate order plus its
/// half-open execution interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedGate {
    /// The gate, as stored in the schedule.
    pub gate: Gate,
    /// Start time in nanoseconds.
    pub start_ns: f64,
    /// Duration in nanoseconds.
    pub duration_ns: f64,
}

impl TimedGate {
    /// End time in nanoseconds.
    pub fn end_ns(&self) -> f64 {
        self.start_ns + self.duration_ns
    }
}

/// A per-qubit-availability list schedule of a [`ScheduledCircuit`] with
/// real gate durations.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    num_qubits: usize,
    gates: Vec<TimedGate>,
    qubit_busy_ns: Vec<f64>,
    /// Per-qubit end of the last gate (0 for unused qubits).
    qubit_release_ns: Vec<f64>,
    total_ns: f64,
}

impl Timeline {
    /// Builds the timeline of `schedule` under the gate-duration oracle
    /// `duration_ns` (negative durations are clamped to zero).
    ///
    /// Gates are placed in schedule order: each starts at the latest
    /// release time among its qubits, which preserves the schedule's
    /// per-qubit gate order exactly.
    pub fn schedule(schedule: &ScheduledCircuit, duration_ns: impl Fn(&Gate) -> f64) -> Self {
        let n = schedule.num_qubits();
        let mut release = vec![0.0f64; n];
        let mut busy = vec![0.0f64; n];
        let mut gates = Vec::with_capacity(schedule.gate_count());
        let mut total = 0.0f64;
        for gate in schedule.iter_gates() {
            let dur = duration_ns(gate).max(0.0);
            let start = gate
                .qubits()
                .iter()
                .map(|&q| release[q])
                .fold(0.0f64, f64::max);
            let end = start + dur;
            for q in gate.qubits() {
                release[q] = end;
                busy[q] += dur;
            }
            total = total.max(end);
            gates.push(TimedGate {
                gate: *gate,
                start_ns: start,
                duration_ns: dur,
            });
        }
        Self {
            num_qubits: n,
            gates,
            qubit_busy_ns: busy,
            qubit_release_ns: release,
            total_ns: total,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The timed gates, in schedule order.
    pub fn gates(&self) -> &[TimedGate] {
        &self.gates
    }

    /// Total circuit duration in nanoseconds (makespan).
    pub fn total_ns(&self) -> f64 {
        self.total_ns
    }

    /// Returns `true` if at least one gate acts on qubit `q`.
    pub fn is_used(&self, q: usize) -> bool {
        self.qubit_release_ns[q] > 0.0 || self.qubit_busy_ns[q] > 0.0
    }

    /// Nanoseconds qubit `q` spends idling between the start of the circuit
    /// and the final measurement (the makespan), i.e. `total − busy`.
    /// Unused qubits report zero idle time — they carry no state and do not
    /// decohere anything the circuit measures.
    pub fn idle_ns(&self, q: usize) -> f64 {
        if self.is_used(q) {
            (self.total_ns - self.qubit_busy_ns[q]).max(0.0)
        } else {
            0.0
        }
    }

    /// The qubits with at least one gate, in ascending order.
    pub fn used_qubits(&self) -> Vec<usize> {
        (0..self.num_qubits).filter(|&q| self.is_used(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn chain_schedule() -> ScheduledCircuit {
        ScheduledCircuit::asap_from_gates(
            4,
            &[
                Gate::canonical(0, 1, 0.0, 0.0, 0.1),
                Gate::canonical(2, 3, 0.0, 0.0, 0.1),
                Gate::canonical(1, 2, 0.0, 0.0, 0.1),
                Gate::single(GateKind::Rx(0.3), 0),
            ],
        )
    }

    #[test]
    fn unit_durations_reproduce_cycle_indices() {
        let s = chain_schedule();
        let t = Timeline::schedule(&s, |_| 1.0);
        // Gate start times equal their ASAP moment index.
        for (moment_idx, moment) in s.moments().iter().enumerate() {
            for gate in moment.gates() {
                let timed = t.gates().iter().find(|tg| tg.gate == *gate).unwrap();
                assert_eq!(timed.start_ns, moment_idx as f64, "{gate}");
            }
        }
        assert_eq!(t.total_ns(), s.depth() as f64);
    }

    #[test]
    fn heterogeneous_durations_respect_per_qubit_order() {
        let s = chain_schedule();
        // The (0,1) gate takes 400ns, (2,3) takes 100ns: (1,2) must wait for
        // the slower of its two predecessors.
        let t = Timeline::schedule(&s, |g| {
            if !g.is_two_qubit() {
                30.0
            } else if g.qubit_pair() == (0, 1) {
                400.0
            } else {
                100.0
            }
        });
        let start_of = |a: usize, b: usize| {
            t.gates()
                .iter()
                .find(|tg| tg.gate.is_two_qubit() && tg.gate.qubit_pair() == (a, b))
                .unwrap()
                .start_ns
        };
        assert_eq!(start_of(0, 1), 0.0);
        assert_eq!(start_of(2, 3), 0.0);
        assert_eq!(start_of(1, 2), 400.0);
        assert_eq!(t.total_ns(), 500.0);
        // Qubit 3 executes 100ns of gates, then idles until the makespan.
        assert_eq!(t.qubit_busy_ns[3], 100.0);
        assert_eq!(t.idle_ns(3), 400.0);
    }

    #[test]
    fn per_qubit_intervals_are_disjoint_and_ordered() {
        let s = chain_schedule();
        let t = Timeline::schedule(&s, |g| if g.is_two_qubit() { 250.0 } else { 35.0 });
        for q in 0..4 {
            let mut last_end = 0.0f64;
            for tg in t.gates().iter().filter(|tg| tg.gate.acts_on(q)) {
                assert!(
                    tg.start_ns >= last_end,
                    "qubit {q}: gate {} starts before its predecessor ends",
                    tg.gate
                );
                last_end = tg.end_ns();
            }
        }
    }

    #[test]
    fn unused_qubits_have_no_idle_time() {
        let s = ScheduledCircuit::asap_from_gates(5, &[Gate::canonical(0, 1, 0.0, 0.0, 0.1)]);
        let t = Timeline::schedule(&s, |_| 100.0);
        assert!(t.is_used(0) && t.is_used(1));
        assert!(!t.is_used(4));
        assert_eq!(t.idle_ns(4), 0.0);
        assert_eq!(t.used_qubits(), vec![0, 1]);
        assert_eq!(t.num_qubits(), 5);
    }

    #[test]
    fn empty_schedule_has_zero_duration() {
        let t = Timeline::schedule(&ScheduledCircuit::new(3), |_| 100.0);
        assert_eq!(t.total_ns(), 0.0);
        assert!(t.gates().is_empty());
        assert!(t.used_qubits().is_empty());
    }
}
