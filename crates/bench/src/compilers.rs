//! A uniform interface over 2QAN and the baseline compilers.
//!
//! Compilation dispatch goes through `twoqan_baselines::CompilerRegistry`
//! — [`CompilerKind`] only names the registry entries the paper's figures
//! compare and carries the figure-specific compiler sets.

use twoqan::pipeline::{CompiledOutput, Compiler};
use twoqan_baselines::CompilerRegistry;
use twoqan_circuit::{Circuit, HardwareMetrics, ScheduledCircuit};
use twoqan_device::Device;

/// The compilers compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerKind {
    /// The paper's compiler.
    TwoQan,
    /// The t|ket⟩-like order-respecting baseline.
    TketLike,
    /// The Qiskit-like order-respecting baseline.
    QiskitLike,
    /// The IC-QAOA-like commutation-aware baseline.
    IcQaoa,
    /// The Paulihedral-like block-ordered baseline.
    Paulihedral,
    /// The connectivity-unconstrained reference.
    NoMap,
}

impl CompilerKind {
    /// The compiler set used for the Hamiltonian-model figures.
    pub const GENERAL: [CompilerKind; 4] = [
        CompilerKind::NoMap,
        CompilerKind::QiskitLike,
        CompilerKind::TketLike,
        CompilerKind::TwoQan,
    ];

    /// The compiler set used for the QAOA figures on Montreal (adds
    /// IC-QAOA, as in Fig. 9j–l and Fig. 10).
    pub const QAOA: [CompilerKind; 5] = [
        CompilerKind::NoMap,
        CompilerKind::QiskitLike,
        CompilerKind::TketLike,
        CompilerKind::IcQaoa,
        CompilerKind::TwoQan,
    ];

    /// Display name used in tables and CSV files (matches the registry).
    pub fn name(&self) -> &'static str {
        match self {
            CompilerKind::TwoQan => "2QAN",
            CompilerKind::TketLike => "tket-like",
            CompilerKind::QiskitLike => "Qiskit-like",
            CompilerKind::IcQaoa => "IC-QAOA",
            CompilerKind::Paulihedral => "Paulihedral-like",
            CompilerKind::NoMap => "NoMap",
        }
    }

    /// The stock-configuration registry entry for this kind.
    pub fn compiler(&self) -> Box<dyn Compiler> {
        CompilerRegistry::by_name(self.name())
            .expect("every CompilerKind has a registry entry of the same name")
    }

    /// Compiles `circuit` for `device` through the registry and returns the
    /// full [`CompiledOutput`] (placements, per-pass report, metrics).
    pub fn compile_output(&self, circuit: &Circuit, device: &Device) -> CompiledOutput {
        self.compiler()
            .compile(circuit, device)
            .expect("benchmark circuits fit on their devices")
    }

    /// Compiles `circuit` for `device` and returns the scheduled hardware
    /// circuit together with its metrics for the device's default basis.
    pub fn compile(
        &self,
        circuit: &Circuit,
        device: &Device,
    ) -> (ScheduledCircuit, HardwareMetrics) {
        let out = self.compile_output(circuit, device);
        (out.hardware_circuit, out.metrics)
    }
}

impl std::fmt::Display for CompilerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One row of a compilation-metrics table: a (workload, size, instance,
/// compiler) data point.
#[derive(Debug, Clone)]
pub struct MetricsRow {
    /// Benchmark family name.
    pub workload: String,
    /// Device name.
    pub device: String,
    /// Native basis name.
    pub basis: String,
    /// Compiler name.
    pub compiler: String,
    /// Number of circuit qubits.
    pub qubits: usize,
    /// Instance index.
    pub instance: usize,
    /// Inserted SWAPs.
    pub swaps: usize,
    /// Dressed SWAPs (merged with a circuit gate).
    pub dressed_swaps: usize,
    /// Hardware two-qubit gate count after decomposition.
    pub hardware_two_qubit_gates: usize,
    /// Hardware two-qubit depth.
    pub hardware_two_qubit_depth: usize,
    /// Estimated total depth (all gates).
    pub total_depth: usize,
    /// Hardware two-qubit gate count of the NoMap baseline (for overheads).
    pub baseline_two_qubit_gates: usize,
    /// Hardware two-qubit depth of the NoMap baseline.
    pub baseline_two_qubit_depth: usize,
    /// Estimated success probability of the compiled circuit under the
    /// device target's per-channel noise model.
    pub esp: f64,
    /// Circuit duration in nanoseconds under the target's calibrated gate
    /// durations (0 for deviceless compilations such as NoMap).
    pub duration_ns: f64,
}

/// One CSV column of [`MetricsRow`]: its header name and value accessor.
type MetricsRowField = (&'static str, fn(&MetricsRow) -> String);

/// The single source of truth for [`MetricsRow`] CSV serialisation: one
/// `(column name, accessor)` pair per field, so the header and the rows
/// cannot drift apart when columns are added.
const METRICS_ROW_FIELDS: &[MetricsRowField] = &[
    ("workload", |r| r.workload.clone()),
    ("device", |r| r.device.clone()),
    ("basis", |r| r.basis.clone()),
    ("compiler", |r| r.compiler.clone()),
    ("qubits", |r| r.qubits.to_string()),
    ("instance", |r| r.instance.to_string()),
    ("swaps", |r| r.swaps.to_string()),
    ("dressed_swaps", |r| r.dressed_swaps.to_string()),
    ("hw_two_qubit_gates", |r| {
        r.hardware_two_qubit_gates.to_string()
    }),
    ("hw_two_qubit_depth", |r| {
        r.hardware_two_qubit_depth.to_string()
    }),
    ("total_depth", |r| r.total_depth.to_string()),
    ("nomap_two_qubit_gates", |r| {
        r.baseline_two_qubit_gates.to_string()
    }),
    ("nomap_two_qubit_depth", |r| {
        r.baseline_two_qubit_depth.to_string()
    }),
    ("esp", |r| format!("{:.6}", r.esp)),
    ("duration_ns", |r| format!("{:.1}", r.duration_ns)),
];

impl MetricsRow {
    /// Builds a row from computed metrics.  `esp` and `duration_ns` come
    /// from the same duration-aware timeline (see [`crate::noise::noise_point`])
    /// so the idle decay inside the ESP and the reported duration always
    /// agree — including for the deviceless NoMap reference, whose both
    /// values use the target's average-fallback channels.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        workload: &str,
        device: &Device,
        compiler: CompilerKind,
        qubits: usize,
        instance: usize,
        metrics: &HardwareMetrics,
        baseline: &HardwareMetrics,
        esp: f64,
        duration_ns: f64,
    ) -> Self {
        Self {
            workload: workload.to_string(),
            device: device.name().to_string(),
            basis: device.default_basis().name().to_string(),
            compiler: compiler.name().to_string(),
            qubits,
            instance,
            swaps: metrics.swap_count,
            dressed_swaps: metrics.dressed_swap_count,
            hardware_two_qubit_gates: metrics.hardware_two_qubit_count,
            hardware_two_qubit_depth: metrics.hardware_two_qubit_depth,
            total_depth: metrics.total_depth_estimate,
            baseline_two_qubit_gates: baseline.hardware_two_qubit_count,
            baseline_two_qubit_depth: baseline.hardware_two_qubit_depth,
            esp,
            duration_ns,
        }
    }

    /// Hardware-gate overhead over the NoMap baseline.
    pub fn gate_overhead(&self) -> f64 {
        self.hardware_two_qubit_gates as f64 - self.baseline_two_qubit_gates as f64
    }

    /// Two-qubit-depth overhead over the NoMap baseline.
    pub fn depth_overhead(&self) -> f64 {
        self.hardware_two_qubit_depth as f64 - self.baseline_two_qubit_depth as f64
    }

    /// The CSV header matching [`MetricsRow::csv_line`] (derived from the
    /// same field list).
    pub fn csv_header() -> String {
        METRICS_ROW_FIELDS
            .iter()
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The row serialised as a CSV line (derived from the same field list
    /// as [`MetricsRow::csv_header`]).
    pub fn csv_line(&self) -> String {
        METRICS_ROW_FIELDS
            .iter()
            .map(|(_, get)| get(self))
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Workload, WorkloadKind};
    use twoqan_device::TwoQubitBasis;

    #[test]
    fn every_compiler_produces_hardware_compatible_output() {
        let w = Workload::generate(WorkloadKind::QaoaRegular(3), 8, 0);
        let device = Device::montreal();
        for kind in CompilerKind::QAOA {
            let (schedule, metrics) = kind.compile(&w.circuit, &device);
            if kind != CompilerKind::NoMap {
                assert!(
                    schedule
                        .iter_gates()
                        .filter(|g| g.is_two_qubit())
                        .all(|g| device.are_adjacent(g.qubit0(), g.qubit1())),
                    "{kind} produced a non-NN gate"
                );
            }
            assert!(metrics.hardware_two_qubit_count >= 24, "{kind}");
        }
    }

    #[test]
    fn two_qan_never_uses_more_swaps_than_generic_baselines() {
        let w = Workload::generate(WorkloadKind::NnnIsing, 12, 0);
        let device = Device::montreal();
        let (_, ours) = CompilerKind::TwoQan.compile(&w.circuit, &device);
        let (_, tket) = CompilerKind::TketLike.compile(&w.circuit, &device);
        let (_, qiskit) = CompilerKind::QiskitLike.compile(&w.circuit, &device);
        assert!(ours.swap_count <= tket.swap_count);
        assert!(ours.swap_count <= qiskit.swap_count);
    }

    #[test]
    fn metrics_row_roundtrip() {
        let w = Workload::generate(WorkloadKind::NnnXy, 8, 0);
        let device = Device::grid(2, 4, TwoQubitBasis::Cnot);
        let (_, base) = CompilerKind::NoMap.compile(&w.circuit, &device);
        let (schedule, ours) = CompilerKind::TwoQan.compile(&w.circuit, &device);
        let noise = crate::noise::noise_point(&schedule, &device);
        let row = MetricsRow::new(
            "NNN-XY",
            &device,
            CompilerKind::TwoQan,
            8,
            0,
            &ours,
            &base,
            noise.breakdown.esp(),
            noise.duration_ns,
        );
        assert!(row.gate_overhead() >= 0.0);
        assert!(row.esp > 0.0 && row.esp < 1.0);
        assert!(row.duration_ns > 0.0);
        // For device-mapped compilations the timeline duration equals the
        // metrics duration (same timeline construction).
        assert_eq!(row.duration_ns, ours.duration_ns);
        let line = row.csv_line();
        assert_eq!(
            line.split(',').count(),
            MetricsRow::csv_header().split(',').count()
        );
        assert!(line.starts_with("NNN-XY,"));
    }

    #[test]
    fn csv_header_is_stable_and_cannot_drift_from_rows() {
        // The golden result CSVs pin this exact header; the shared field
        // list guarantees header/row agreement by construction.
        assert_eq!(
            MetricsRow::csv_header(),
            "workload,device,basis,compiler,qubits,instance,swaps,dressed_swaps,\
             hw_two_qubit_gates,hw_two_qubit_depth,total_depth,\
             nomap_two_qubit_gates,nomap_two_qubit_depth,esp,duration_ns"
        );
        assert_eq!(
            METRICS_ROW_FIELDS.len(),
            MetricsRow::csv_header().split(',').count()
        );
    }

    #[test]
    fn compiler_names_are_stable() {
        assert_eq!(CompilerKind::TwoQan.to_string(), "2QAN");
        assert_eq!(CompilerKind::NoMap.name(), "NoMap");
        assert_eq!(CompilerKind::GENERAL.len(), 4);
        assert_eq!(CompilerKind::QAOA.len(), 5);
    }

    #[test]
    fn compile_output_exposes_placements_and_pass_report() {
        let w = Workload::generate(WorkloadKind::NnnIsing, 8, 0);
        let device = Device::aspen();
        let out = CompilerKind::TwoQan.compile_output(&w.circuit, &device);
        assert_eq!(out.compiler, "2QAN");
        assert_eq!(out.initial_placement.len(), 8);
        assert!(out.final_placement.is_some());
        assert!(out.report.pass_names().contains(&"qap-mapping"));
    }
}
