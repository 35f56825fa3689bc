//! Benchmark workload generators (§IV of the paper).

use twoqan_circuit::Circuit;
use twoqan_ham::{nnn_heisenberg, nnn_ising, nnn_xy, trotter_step, QaoaProblem};
// The model constructors are shared with `twoqan_verify::workloads` — both
// re-export them from `twoqan-ham`, the single home of the benchmark-model
// builders.
pub use twoqan_ham::{heisenberg_on_edges, transverse_ising_on_edges, xy_on_edges, zz_on_edges};

/// The benchmark families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// NNN Heisenberg model (one Trotter step).
    NnnHeisenberg,
    /// NNN XY model (one Trotter step).
    NnnXy,
    /// NNN transverse-field Ising model (one Trotter step).
    NnnIsing,
    /// QAOA MaxCut on random d-regular graphs (one layer).
    QaoaRegular(usize),
}

impl WorkloadKind {
    /// Display name matching the paper's figure captions.
    pub fn name(&self) -> String {
        match self {
            WorkloadKind::NnnHeisenberg => "NNN-Heisenberg".into(),
            WorkloadKind::NnnXy => "NNN-XY".into(),
            WorkloadKind::NnnIsing => "NNN-Ising".into(),
            WorkloadKind::QaoaRegular(d) => format!("QAOA-REG-{d}"),
        }
    }

    /// Number of random instances per problem size (the paper averages over
    /// 10 QAOA instances; the Hamiltonian models use a single coefficient
    /// sample because the compilation metrics do not depend on the values).
    pub fn default_instances(&self) -> usize {
        match self {
            WorkloadKind::QaoaRegular(_) => 10,
            _ => 1,
        }
    }
}

/// One concrete benchmark instance: a circuit (one Trotter step / QAOA
/// layer) plus the metadata the report needs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The benchmark family.
    pub kind: WorkloadKind,
    /// Number of circuit qubits.
    pub num_qubits: usize,
    /// Instance index (0 for the deterministic Hamiltonian models).
    pub instance: usize,
    /// The application circuit.
    pub circuit: Circuit,
    /// The QAOA problem (only for QAOA workloads; needed for Fig. 10).
    pub qaoa: Option<QaoaProblem>,
}

impl Workload {
    /// Builds one instance of a benchmark family.
    pub fn generate(kind: WorkloadKind, num_qubits: usize, instance: usize) -> Self {
        let seed = 1000 * num_qubits as u64 + instance as u64;
        match kind {
            WorkloadKind::NnnHeisenberg => Self {
                kind,
                num_qubits,
                instance,
                circuit: trotter_step(&nnn_heisenberg(num_qubits, seed), 1.0),
                qaoa: None,
            },
            WorkloadKind::NnnXy => Self {
                kind,
                num_qubits,
                instance,
                circuit: trotter_step(&nnn_xy(num_qubits, seed), 1.0),
                qaoa: None,
            },
            WorkloadKind::NnnIsing => Self {
                kind,
                num_qubits,
                instance,
                circuit: trotter_step(&nnn_ising(num_qubits, seed), 1.0),
                qaoa: None,
            },
            WorkloadKind::QaoaRegular(degree) => {
                let problem = QaoaProblem::random_regular(num_qubits, degree, seed);
                let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
                let circuit = problem.circuit(&[(gamma, beta)], false);
                Self {
                    kind,
                    num_qubits,
                    instance,
                    circuit,
                    qaoa: Some(problem),
                }
            }
        }
    }

    /// The qubit-count sweep used in the paper for a benchmark family on a
    /// device with `device_qubits` hardware qubits.
    pub fn paper_sizes(kind: WorkloadKind, device_qubits: usize) -> Vec<usize> {
        let sizes: Vec<usize> = match kind {
            WorkloadKind::QaoaRegular(_) => (4..=22).step_by(2).collect(),
            // 6..26 step 2, then 32, 40, 50 (the Ising sweep stops at 40).
            WorkloadKind::NnnIsing => {
                let mut v: Vec<usize> = (6..=26).step_by(2).collect();
                v.extend([32, 40]);
                v
            }
            _ => {
                let mut v: Vec<usize> = (6..=26).step_by(2).collect();
                v.extend([32, 40, 50]);
                v
            }
        };
        sizes.into_iter().filter(|&n| n <= device_qubits).collect()
    }

    /// A reduced sweep for `--quick` runs.
    pub fn quick_sizes(kind: WorkloadKind, device_qubits: usize) -> Vec<usize> {
        Self::paper_sizes(kind, device_qubits)
            .into_iter()
            .step_by(3)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_expected_gate_counts() {
        let w = Workload::generate(WorkloadKind::NnnHeisenberg, 10, 0);
        assert_eq!(w.circuit.two_qubit_gate_count(), 17);
        let w = Workload::generate(WorkloadKind::QaoaRegular(3), 8, 2);
        assert_eq!(w.circuit.two_qubit_gate_count(), 12);
        assert!(w.qaoa.is_some());
        let w = Workload::generate(WorkloadKind::NnnIsing, 6, 0);
        assert_eq!(w.circuit.single_qubit_gate_count(), 6);
    }

    #[test]
    fn paper_sizes_respect_device_capacity() {
        let aspen = Workload::paper_sizes(WorkloadKind::NnnHeisenberg, 16);
        assert_eq!(aspen, vec![6, 8, 10, 12, 14, 16]);
        let sycamore = Workload::paper_sizes(WorkloadKind::NnnHeisenberg, 54);
        assert!(sycamore.contains(&50));
        let montreal = Workload::paper_sizes(WorkloadKind::QaoaRegular(3), 27);
        assert_eq!(montreal.last(), Some(&22));
        let ising = Workload::paper_sizes(WorkloadKind::NnnIsing, 54);
        assert!(!ising.contains(&50));
        assert!(ising.contains(&40));
    }

    #[test]
    fn quick_sizes_are_a_subset() {
        let full = Workload::paper_sizes(WorkloadKind::NnnXy, 27);
        let quick = Workload::quick_sizes(WorkloadKind::NnnXy, 27);
        assert!(quick.len() < full.len());
        assert!(quick.iter().all(|s| full.contains(s)));
    }

    #[test]
    fn names_and_instances() {
        assert_eq!(WorkloadKind::QaoaRegular(3).name(), "QAOA-REG-3");
        assert_eq!(WorkloadKind::NnnXy.name(), "NNN-XY");
        assert_eq!(WorkloadKind::QaoaRegular(3).default_instances(), 10);
        assert_eq!(WorkloadKind::NnnIsing.default_instances(), 1);
    }

    #[test]
    fn instances_differ_but_are_deterministic() {
        let a = Workload::generate(WorkloadKind::QaoaRegular(3), 10, 0);
        let b = Workload::generate(WorkloadKind::QaoaRegular(3), 10, 1);
        let a2 = Workload::generate(WorkloadKind::QaoaRegular(3), 10, 0);
        assert_eq!(
            a.circuit.two_qubit_signature(),
            a2.circuit.two_qubit_signature()
        );
        assert_ne!(
            a.circuit.two_qubit_signature(),
            b.circuit.two_qubit_signature()
        );
    }
}
