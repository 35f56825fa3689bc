//! Per-figure and per-table benchmark sweeps.

use crate::compilers::{CompilerKind, MetricsRow};
use crate::report::{format_ratio, write_csv, Table};
use crate::workloads::{Workload, WorkloadKind};
use std::collections::BTreeMap;
use twoqan_baselines::PaulihedralCompiler;
use twoqan_circuit::HardwareMetrics;
use twoqan_device::{Device, TwoQubitBasis};
use twoqan_ham::{heisenberg_lattice, LatticeDimensions, QaoaProblem};
use twoqan_sim::{optimize_angles, NoiseModel};

/// Returns `true` if `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The four workload families of the main evaluation figures.
pub fn main_workloads() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::NnnHeisenberg,
        WorkloadKind::NnnXy,
        WorkloadKind::NnnIsing,
        WorkloadKind::QaoaRegular(3),
    ]
}

/// Runs the full compilation sweep for one figure (one device/basis): every
/// workload family, every paper problem size, every instance, every
/// compiler.  Returns one [`MetricsRow`] per (workload, size, instance,
/// compiler).
pub fn run_compilation_sweep(
    device: &Device,
    workloads: &[WorkloadKind],
    quick: bool,
    instance_cap: usize,
) -> Vec<MetricsRow> {
    let mut rows = Vec::new();
    for &kind in workloads {
        let sizes = if quick {
            Workload::quick_sizes(kind, device.num_qubits())
        } else {
            Workload::paper_sizes(kind, device.num_qubits())
        };
        let instances = kind.default_instances().min(instance_cap).max(1);
        let compilers: &[CompilerKind] = if matches!(kind, WorkloadKind::QaoaRegular(_))
            && device.default_basis() == TwoQubitBasis::Cnot
        {
            &CompilerKind::QAOA
        } else {
            &CompilerKind::GENERAL
        };
        for &n in &sizes {
            for instance in 0..instances {
                let workload = Workload::generate(kind, n, instance);
                let (_, baseline) = CompilerKind::NoMap.compile(&workload.circuit, device);
                for &compiler in compilers {
                    let (schedule, metrics) = compiler.compile(&workload.circuit, device);
                    let noise = crate::noise::noise_point(&schedule, device);
                    rows.push(MetricsRow::new(
                        &kind.name(),
                        device,
                        compiler,
                        n,
                        instance,
                        &metrics,
                        &baseline,
                        noise.breakdown.esp(),
                        noise.duration_ns,
                    ));
                }
            }
        }
    }
    rows
}

/// Prints the per-size summary of a figure (SWAPs / dressed SWAPs / native
/// gates / two-qubit depth, averaged over instances) and writes the raw rows
/// as CSV.  Returns the rendered tables.
pub fn report_figure(figure: &str, device: &Device, rows: &[MetricsRow]) -> Vec<Table> {
    let lines: Vec<String> = rows.iter().map(MetricsRow::csv_line).collect();
    let path = write_csv(figure, &MetricsRow::csv_header(), &lines);
    println!("wrote {} rows to {}", rows.len(), path.display());

    let mut tables = Vec::new();
    let mut workloads: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
    workloads.dedup();
    workloads.sort();
    workloads.dedup();
    for workload in workloads {
        let mut table = Table::new(
            format!(
                "{figure}: {workload} on {} ({} basis)",
                device.name(),
                device.default_basis()
            ),
            &[
                "qubits",
                "compiler",
                "SWAPs",
                "dressed",
                "2q gates",
                "2q depth",
                "total depth",
            ],
        );
        // Group by (qubits, compiler) and average over instances.
        let mut groups: BTreeMap<(usize, String), Vec<&MetricsRow>> = BTreeMap::new();
        for row in rows.iter().filter(|r| r.workload == workload) {
            groups
                .entry((row.qubits, row.compiler.clone()))
                .or_default()
                .push(row);
        }
        for ((qubits, compiler), group) in groups {
            let avg = |f: &dyn Fn(&MetricsRow) -> f64| -> f64 {
                group.iter().map(|r| f(r)).sum::<f64>() / group.len() as f64
            };
            table.push_row(vec![
                qubits.to_string(),
                compiler,
                format!("{:.1}", avg(&|r| r.swaps as f64)),
                format!("{:.1}", avg(&|r| r.dressed_swaps as f64)),
                format!("{:.1}", avg(&|r| r.hardware_two_qubit_gates as f64)),
                format!("{:.1}", avg(&|r| r.hardware_two_qubit_depth as f64)),
                format!("{:.1}", avg(&|r| r.total_depth as f64)),
            ]);
        }
        table.print();
        tables.push(table);
    }
    tables
}

/// Builds the overhead-reduction table (Tables I/II/IV/V): for each workload,
/// the average and maximum ratio of `other`'s overhead to 2QAN's overhead in
/// SWAP count, hardware gate count and two-qubit depth.
pub fn overhead_reduction_table(title: &str, rows: &[MetricsRow], other: CompilerKind) -> Table {
    let mut table = Table::new(
        title,
        &[
            "workload",
            "SWAPs avg",
            "SWAPs max",
            "2q gates avg",
            "2q gates max",
            "2q depth avg",
            "2q depth max",
        ],
    );
    let mut workloads: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
    workloads.sort();
    workloads.dedup();
    for workload in workloads {
        let mut swap_ratios = Vec::new();
        let mut gate_ratios = Vec::new();
        let mut depth_ratios = Vec::new();
        // Group by (qubits, instance): pair the other compiler's row with 2QAN's.
        type RowPair<'a> = (Option<&'a MetricsRow>, Option<&'a MetricsRow>);
        let mut points: BTreeMap<(usize, usize), RowPair> = BTreeMap::new();
        for row in rows.iter().filter(|r| r.workload == workload) {
            let entry = points
                .entry((row.qubits, row.instance))
                .or_insert((None, None));
            if row.compiler == CompilerKind::TwoQan.name() {
                entry.0 = Some(row);
            } else if row.compiler == other.name() {
                entry.1 = Some(row);
            }
        }
        for (ours, theirs) in points.values() {
            let (Some(ours), Some(theirs)) = (ours, theirs) else {
                continue;
            };
            let ratio = |a: f64, b: f64| if b > 1e-9 { Some(a / b) } else { None };
            if let Some(r) = ratio(theirs.swaps as f64, ours.swaps as f64) {
                swap_ratios.push(r);
            }
            if let Some(r) = ratio(theirs.gate_overhead(), ours.gate_overhead()) {
                gate_ratios.push(r);
            }
            if let Some(r) = ratio(theirs.depth_overhead(), ours.depth_overhead()) {
                depth_ratios.push(r);
            }
        }
        let summarise = |v: &[f64]| -> (String, String) {
            if v.is_empty() {
                ("-".into(), "-".into())
            } else {
                let avg = v.iter().sum::<f64>() / v.len() as f64;
                let max = v.iter().copied().fold(f64::MIN, f64::max);
                (format_ratio(avg), format_ratio(max))
            }
        };
        let (sa, sm) = summarise(&swap_ratios);
        let (ga, gm) = summarise(&gate_ratios);
        let (da, dm) = summarise(&depth_ratios);
        table.push_row(vec![workload, sa, sm, ga, gm, da, dm]);
    }
    table
}

/// One data point of the Fig. 10 application-performance evaluation.
#[derive(Debug, Clone)]
pub struct FidelityRow {
    /// Number of qubits.
    pub qubits: usize,
    /// Instance index.
    pub instance: usize,
    /// Number of QAOA layers.
    pub layers: usize,
    /// Compiler name.
    pub compiler: String,
    /// Estimated circuit fidelity.
    pub fidelity: f64,
    /// Noiseless normalised cost.
    pub ideal_normalized: f64,
    /// Noisy normalised cost (the Fig. 10 y-axis).
    pub noisy_normalized: f64,
}

impl FidelityRow {
    /// CSV header for [`FidelityRow::csv_line`].
    pub fn csv_header() -> &'static str {
        "qubits,instance,layers,compiler,fidelity,ideal_normalized,noisy_normalized"
    }

    /// CSV serialisation.
    pub fn csv_line(&self) -> String {
        format!(
            "{},{},{},{},{:.6},{:.6},{:.6}",
            self.qubits,
            self.instance,
            self.layers,
            self.compiler,
            self.fidelity,
            self.ideal_normalized,
            self.noisy_normalized
        )
    }
}

/// Runs the Fig. 10 evaluation: QAOA-REG-3 instances compiled by every
/// compiler onto Montreal and evaluated with the calibrated noise model for
/// 1–3 layers.
///
/// The per-layer overhead is the compiled single-layer overhead multiplied
/// by the layer count, exactly as the paper scales its multi-layer circuits.
pub fn run_qaoa_fidelity(
    sizes: &[usize],
    instances: usize,
    layer_counts: &[usize],
) -> Vec<FidelityRow> {
    let device = Device::montreal();
    let noise = NoiseModel::from_device(&device);
    let mut rows = Vec::new();
    for &n in sizes {
        for instance in 0..instances {
            let seed = 1000 * n as u64 + instance as u64;
            let problem = QaoaProblem::random_regular(n, 3, seed);
            let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
            let layer_circuit = problem.circuit(&[(gamma, beta)], false);
            // Compile the single layer once per compiler.
            let mut compiled: Vec<(CompilerKind, HardwareMetrics)> = Vec::new();
            for &compiler in &CompilerKind::QAOA {
                let (_, metrics) = compiler.compile(&layer_circuit, &device);
                compiled.push((compiler, metrics));
            }
            let cost_minimum = problem.cost_minimum();
            for &layers in layer_counts {
                let params = optimize_angles(&problem, layers, 8);
                // The ideal expectation is compiler-independent: simulate once.
                let ideal_expectation =
                    twoqan_sim::qaoa_eval::ideal_cost_expectation(&problem, &params);
                let ideal_normalized = ideal_expectation / cost_minimum;
                for (compiler, metrics) in &compiled {
                    let scaled = scale_metrics(metrics, layers);
                    let fidelity = noise.circuit_fidelity(&scaled, n);
                    rows.push(FidelityRow {
                        qubits: n,
                        instance,
                        layers,
                        compiler: compiler.name().to_string(),
                        fidelity,
                        ideal_normalized,
                        noisy_normalized: fidelity * ideal_normalized,
                    });
                }
                // The noiseless reference curve of Fig. 10.
                rows.push(FidelityRow {
                    qubits: n,
                    instance,
                    layers,
                    compiler: "Noiseless".into(),
                    fidelity: 1.0,
                    ideal_normalized,
                    noisy_normalized: ideal_normalized,
                });
            }
        }
    }
    rows
}

/// Multiplies a single-layer metric set by the number of layers.
fn scale_metrics(metrics: &HardwareMetrics, layers: usize) -> HardwareMetrics {
    let mut m = *metrics;
    m.swap_count *= layers;
    m.dressed_swap_count *= layers;
    m.application_two_qubit_count *= layers;
    m.hardware_two_qubit_count *= layers;
    m.hardware_two_qubit_depth *= layers;
    m.application_two_qubit_depth *= layers;
    m.total_depth_estimate *= layers;
    m.explicit_single_qubit_count *= layers;
    m.duration_ns *= layers as f64;
    m
}

/// Prints and persists the Fig. 10 rows.
pub fn report_fidelity(figure: &str, rows: &[FidelityRow]) -> Table {
    let lines: Vec<String> = rows.iter().map(FidelityRow::csv_line).collect();
    let path = write_csv(figure, FidelityRow::csv_header(), &lines);
    println!("wrote {} rows to {}", rows.len(), path.display());
    let mut table = Table::new(
        format!("{figure}: QAOA-REG-3 on Montreal — normalised cost ⟨C⟩/C_min"),
        &["layers", "qubits", "compiler", "fidelity", "E(C)/Cmin"],
    );
    let mut groups: BTreeMap<(usize, usize, String), Vec<&FidelityRow>> = BTreeMap::new();
    for r in rows {
        groups
            .entry((r.layers, r.qubits, r.compiler.clone()))
            .or_default()
            .push(r);
    }
    for ((layers, qubits, compiler), group) in groups {
        let avg_f = group.iter().map(|r| r.fidelity).sum::<f64>() / group.len() as f64;
        let avg_c = group.iter().map(|r| r.noisy_normalized).sum::<f64>() / group.len() as f64;
        table.push_row(vec![
            layers.to_string(),
            qubits.to_string(),
            compiler,
            format!("{avg_f:.3}"),
            format!("{avg_c:.3}"),
        ]);
    }
    table.print();
    table
}

/// The Table III comparison against the Paulihedral-style compiler:
/// Heisenberg lattices on all-to-all connectivity and dense QAOA on
/// Montreal.
pub fn run_table3() -> Table {
    let mut table = Table::new(
        "Table III: circuit size comparison with the Paulihedral-style compiler",
        &[
            "benchmark",
            "Paulihedral CNOTs",
            "Paulihedral depth",
            "2QAN CNOTs",
            "2QAN depth",
        ],
    );
    // Heisenberg lattices, 30 qubits, all-to-all connectivity.
    let lattices = [
        ("Heisenberg-1D (30 qubits)", LatticeDimensions::OneD(30)),
        ("Heisenberg-2D (30 qubits)", LatticeDimensions::TwoD(5, 6)),
        (
            "Heisenberg-3D (30 qubits)",
            LatticeDimensions::ThreeD(2, 3, 5),
        ),
    ];
    for (name, dims) in lattices {
        let h = heisenberg_lattice(dims, 3);
        let p = PaulihedralCompiler::new().compile_all_to_all(&h, 1.0, TwoQubitBasis::Cnot);
        // On all-to-all connectivity 2QAN reduces to its colouring scheduler
        // over the unified circuit — the NoMap compilation of the same model.
        let circuit = twoqan_ham::trotter_step(&h, 1.0);
        let all_to_all = Device::all_to_all(h.num_qubits(), TwoQubitBasis::Cnot);
        let (_, q) = CompilerKind::NoMap.compile(&circuit, &all_to_all);
        table.push_row(vec![
            name.into(),
            p.metrics.hardware_two_qubit_count.to_string(),
            p.metrics.hardware_two_qubit_depth.to_string(),
            q.hardware_two_qubit_count.to_string(),
            q.hardware_two_qubit_depth.to_string(),
        ]);
    }
    // Dense QAOA on Montreal (20 qubits, degree 4/8/12), averaged over instances.
    let device = Device::montreal();
    for degree in [4usize, 8, 12] {
        let instances = 5;
        let mut p_gates = 0.0;
        let mut p_depth = 0.0;
        let mut q_gates = 0.0;
        let mut q_depth = 0.0;
        for instance in 0..instances {
            let problem = QaoaProblem::random_regular(20, degree, 77 + instance as u64);
            let circuit = problem.circuit(&[QaoaProblem::optimal_p1_angles_regular3()], false);
            let (_, p) = CompilerKind::Paulihedral.compile(&circuit, &device);
            let (_, q) = CompilerKind::TwoQan.compile(&circuit, &device);
            p_gates += p.hardware_two_qubit_count as f64;
            p_depth += p.hardware_two_qubit_depth as f64;
            q_gates += q.hardware_two_qubit_count as f64;
            q_depth += q.hardware_two_qubit_depth as f64;
        }
        let k = instances as f64;
        table.push_row(vec![
            format!("QAOA-REG-{degree} (20 qubits)"),
            format!("{:.0}", p_gates / k),
            format!("{:.0}", p_depth / k),
            format!("{:.0}", q_gates / k),
            format!("{:.0}", q_depth / k),
        ]);
    }
    table
}

/// The 3-layer QAOA compilation sweep of Fig. 13: baselines compile the full
/// 3-layer circuit, 2QAN compiles one layer and replicates it (as in the
/// paper), so its overhead is exactly 3× the single-layer overhead.
pub fn run_fig13(quick: bool) -> Vec<MetricsRow> {
    let device = Device::montreal();
    let sizes = if quick {
        Workload::quick_sizes(WorkloadKind::QaoaRegular(3), device.num_qubits())
    } else {
        Workload::paper_sizes(WorkloadKind::QaoaRegular(3), device.num_qubits())
    };
    let instances = if quick { 3 } else { 10 };
    let layers = 3usize;
    let mut rows = Vec::new();
    for &n in &sizes {
        for instance in 0..instances {
            let seed = 1000 * n as u64 + instance as u64;
            let problem = QaoaProblem::random_regular(n, 3, seed);
            let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
            let single_layer = problem.circuit(&[(gamma, beta)], false);
            let three_layer = problem.circuit(&vec![(gamma, beta); layers], false);
            let (_, baseline_single) = CompilerKind::NoMap.compile(&single_layer, &device);
            let baseline = scale_metrics(&baseline_single, layers);
            for &compiler in &CompilerKind::QAOA {
                let (metrics, esp, duration_ns) = match compiler {
                    // 2QAN: compile the first layer, replicate (reversing even layers).
                    CompilerKind::TwoQan | CompilerKind::NoMap => {
                        let (schedule, m) = compiler.compile(&single_layer, &device);
                        let noise = crate::noise::noise_point(&schedule, &device);
                        (
                            scale_metrics(&m, layers),
                            noise.breakdown.esp_layers(layers),
                            noise.duration_ns * layers as f64,
                        )
                    }
                    // Generic compilers process the whole multi-layer circuit.
                    _ => {
                        let (schedule, m) = compiler.compile(&three_layer, &device);
                        let noise = crate::noise::noise_point(&schedule, &device);
                        (m, noise.breakdown.esp(), noise.duration_ns)
                    }
                };
                rows.push(MetricsRow::new(
                    "QAOA-REG-3 (3 layers)",
                    &device,
                    compiler,
                    n,
                    instance,
                    &metrics,
                    &baseline,
                    esp,
                    duration_ns,
                ));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_rows_for_every_compiler() {
        let device = Device::aspen();
        let rows = run_compilation_sweep(&device, &[WorkloadKind::NnnIsing], true, 1);
        assert!(!rows.is_empty());
        for compiler in CompilerKind::GENERAL {
            assert!(
                rows.iter().any(|r| r.compiler == compiler.name()),
                "{compiler}"
            );
        }
        // Every 2QAN row must have at most as many SWAPs as the matching
        // Qiskit-like row.
        for row in rows.iter().filter(|r| r.compiler == "2QAN") {
            let other = rows
                .iter()
                .find(|r| {
                    r.compiler == "Qiskit-like"
                        && r.qubits == row.qubits
                        && r.instance == row.instance
                })
                .unwrap();
            assert!(row.swaps <= other.swaps);
        }
    }

    #[test]
    fn overhead_table_has_one_row_per_workload() {
        let device = Device::aspen();
        let mut rows = run_compilation_sweep(&device, &[WorkloadKind::NnnIsing], true, 1);
        rows.extend(run_compilation_sweep(
            &device,
            &[WorkloadKind::NnnXy],
            true,
            1,
        ));
        let table = overhead_reduction_table("test", &rows, CompilerKind::QiskitLike);
        assert_eq!(table.num_rows(), 2);
    }

    #[test]
    fn fidelity_rows_cover_all_compilers_and_noiseless() {
        let rows = run_qaoa_fidelity(&[4], 1, &[1]);
        let compilers: Vec<&str> = rows.iter().map(|r| r.compiler.as_str()).collect();
        assert!(compilers.contains(&"2QAN"));
        assert!(compilers.contains(&"Noiseless"));
        for r in &rows {
            assert!(r.noisy_normalized <= r.ideal_normalized + 1e-9);
            assert!(r.fidelity > 0.0 && r.fidelity <= 1.0);
        }
        // 2QAN's fidelity is at least as high as the generic baselines'.
        let f = |name: &str| rows.iter().find(|r| r.compiler == name).unwrap().fidelity;
        assert!(f("2QAN") >= f("Qiskit-like") - 1e-12);
        assert!(f("2QAN") >= f("tket-like") - 1e-12);
    }

    #[test]
    fn scale_metrics_multiplies_counts() {
        let device = Device::montreal();
        let w = Workload::generate(WorkloadKind::QaoaRegular(3), 6, 0);
        let (_, m) = CompilerKind::TwoQan.compile(&w.circuit, &device);
        let scaled = scale_metrics(&m, 3);
        assert_eq!(
            scaled.hardware_two_qubit_count,
            3 * m.hardware_two_qubit_count
        );
        assert_eq!(scaled.swap_count, 3 * m.swap_count);
    }
}
