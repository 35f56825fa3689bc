//! Seeded inputs: circuits from the `twoqan-ham` constructors and
//! calibration snapshots from the `twoqan-device` constructors, each built
//! with a seed drawn from the workload seed.  The program sees only the
//! generated circuits and devices.

use twoqan_circuit::Circuit;
use twoqan_device::{Device, Target, TwoQubitBasis};
use twoqan_ham::{nnn_heisenberg, nnn_ising, nnn_xy, trotter_step, QaoaProblem};

/// SplitMix64: a small, fixed generator, so the inputs of a seed never
/// change with a dependency's random-number implementation.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream for `seed`, separated from other streams of the same seed
    /// by `label`.
    pub fn new(seed: u64, label: u64) -> Self {
        let mut s = Self {
            state: seed ^ label.wrapping_mul(0xd6e8_feb8_6659_fd93),
        };
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (multiply-shift; the bias is below 2⁻³²
    /// for the small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A benchmark circuit family of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// NNN Heisenberg model, one Trotter step.
    NnnHeisenberg,
    /// NNN XY model, one Trotter step.
    NnnXy,
    /// NNN transverse-field Ising model, one Trotter step.
    NnnIsing,
    /// QAOA MaxCut on a random 3-regular graph, one layer.
    QaoaReg3,
}

impl Family {
    /// Display name, as in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Family::NnnHeisenberg => "NNN-Heisenberg",
            Family::NnnXy => "NNN-XY",
            Family::NnnIsing => "NNN-Ising",
            Family::QaoaReg3 => "QAOA-REG-3",
        }
    }

    /// One `n`-qubit instance for `seed` (coefficients for the Hamiltonian
    /// models, the random graph for QAOA).
    pub fn circuit(self, n: usize, seed: u64) -> Circuit {
        match self {
            Family::NnnHeisenberg => trotter_step(&nnn_heisenberg(n, seed), 1.0),
            Family::NnnXy => trotter_step(&nnn_xy(n, seed), 1.0),
            Family::NnnIsing => trotter_step(&nnn_ising(n, seed), 1.0),
            Family::QaoaReg3 => {
                let problem = QaoaProblem::random_regular(n, 3, seed);
                let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
                problem.circuit(&[(gamma, beta)], false)
            }
        }
    }
}

/// A device topology the workloads compile onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Google Sycamore, 54 qubits, SYC basis.
    Sycamore,
    /// 9×9 grid, 81 qubits, CNOT basis.
    Grid9x9,
    /// 15×14 grid, 210 qubits, CNOT basis.
    Grid15x14,
}

impl Topology {
    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Sycamore => "sycamore",
            Topology::Grid9x9 => "grid9x9",
            Topology::Grid15x14 => "grid15x14",
        }
    }

    /// A freshly built device with uniform calibration and empty distance
    /// caches.
    pub fn device(self) -> Device {
        match self {
            Topology::Sycamore => Device::sycamore(),
            Topology::Grid9x9 => Device::grid(9, 9, TwoQubitBasis::Cnot),
            Topology::Grid15x14 => Device::grid(15, 14, TwoQubitBasis::Cnot),
        }
    }

    /// A heterogeneous calibration snapshot for `seed`, its lazy distance
    /// matrices still empty.
    pub fn snapshot(self, seed: u64) -> Device {
        self.device().with_heterogeneous_calibration(seed)
    }
}

/// A workload class: one family at one size on one topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    /// Circuit family.
    pub family: Family,
    /// Circuit qubits.
    pub qubits: usize,
    /// Device topology.
    pub topology: Topology,
}

impl Class {
    /// `family/n=N@topology`.
    pub fn label(&self) -> String {
        format!(
            "{}/n={}@{}",
            self.family.name(),
            self.qubits,
            self.topology.name()
        )
    }
}

/// FNV-1a (64-bit) over the generated inputs, printed so that two runs can
/// be shown to use the same inputs.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a float's exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Absorbs a circuit: its width and every gate's full description.
    pub fn circuit(&mut self, circuit: &Circuit) {
        self.u64(circuit.num_qubits() as u64);
        for gate in circuit.gates() {
            self.bytes(format!("{gate:?}").as_bytes());
        }
    }

    /// Absorbs a device: its name and every calibration figure.
    pub fn device(&mut self, device: &Device) {
        self.bytes(device.name().as_bytes());
        self.target(device.target());
    }

    /// Absorbs every per-edge and per-qubit calibration figure.
    pub fn target(&mut self, target: &Target) {
        for &(a, b) in target.edges() {
            self.u64(a as u64);
            self.u64(b as u64);
            self.f64(target.two_qubit_error(a, b));
            self.f64(target.two_qubit_duration_ns(a, b));
        }
        for q in 0..target.num_qubits() {
            self.f64(target.single_qubit_error(q));
            self.f64(target.single_qubit_duration_ns(q));
            self.f64(target.readout_error(q));
            self.f64(target.t1_us(q));
            self.f64(target.t2_us(q));
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_separated() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(7, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_is_a_permutation_and_below_stays_in_range() {
        let mut r = SplitMix64::new(3, 0);
        let mut v: Vec<usize> = (0..5).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }

    #[test]
    fn snapshots_and_circuits_follow_their_seeds() {
        let a = Topology::Grid9x9.snapshot(11);
        let b = Topology::Grid9x9.snapshot(11);
        let c = Topology::Grid9x9.snapshot(12);
        let digest = |d: &Device| {
            let mut h = Digest::default();
            h.device(d);
            h.value()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert!(!a.target().is_uniform());

        let q1 = Family::QaoaReg3.circuit(20, 5);
        let q2 = Family::QaoaReg3.circuit(20, 6);
        let circuit_digest = |c: &Circuit| {
            let mut h = Digest::default();
            h.circuit(c);
            h.value()
        };
        assert_eq!(
            circuit_digest(&q1),
            circuit_digest(&Family::QaoaReg3.circuit(20, 5))
        );
        assert_ne!(circuit_digest(&q1), circuit_digest(&q2));
        assert_eq!(Family::NnnHeisenberg.circuit(10, 1).num_qubits(), 10);
    }
}
