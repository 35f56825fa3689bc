//! Golden-snapshot tests for the figure-binary outputs.
//!
//! The figure binaries (`fig09_montreal`, `fig10_qaoa_fidelity`,
//! `table03_paulihedral`) are fully deterministic, so a small, fast subset
//! of their rows — all of Table III — is recomputed on every test run and
//! compared byte-for-byte against the checked-in golden files under
//! `tests/golden/`.  Any compiler or simulator change that
//! shifts the figures now fails here instead of silently drifting the
//! regenerated CSVs — update the golden files (and review the diff) when
//! the change is intentional.
//!
//! When a locally regenerated `results/fig09.csv` / `results/fig10.csv`
//! exists (the `results/` directory is not tracked), it is cross-checked
//! against the same golden rows, so a stale regeneration cannot sit around
//! unnoticed either.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use twoqan_bench::compilers::{CompilerKind, MetricsRow};
use twoqan_bench::figures::{run_qaoa_fidelity, run_table3};
use twoqan_bench::report::results_dir;
use twoqan_bench::workloads::{Workload, WorkloadKind};
use twoqan_device::Device;

fn golden_lines(name: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.csv"));
    let content =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    content.lines().map(str::to_string).collect()
}

/// Recomputes one (workload, size, instance) group of the Fig. 9 sweep
/// exactly as `run_compilation_sweep` does.
fn recompute_fig09_rows(
    kind: WorkloadKind,
    n: usize,
    instance: usize,
    compilers: &[CompilerKind],
) -> Vec<String> {
    let device = Device::montreal();
    let workload = Workload::generate(kind, n, instance);
    let (_, baseline) = CompilerKind::NoMap.compile(&workload.circuit, &device);
    compilers
        .iter()
        .map(|&compiler| {
            let (schedule, metrics) = compiler.compile(&workload.circuit, &device);
            let noise = twoqan_bench::noise::noise_point(&schedule, &device);
            MetricsRow::new(
                &kind.name(),
                &device,
                compiler,
                n,
                instance,
                &metrics,
                &baseline,
                noise.breakdown.esp(),
                noise.duration_ns,
            )
            .csv_line()
        })
        .collect()
}

/// The recomputed Fig. 9 subset, in golden-file order.
fn fig09_subset() -> Vec<String> {
    let mut rows = Vec::new();
    for n in [6usize, 12] {
        rows.extend(recompute_fig09_rows(
            WorkloadKind::NnnHeisenberg,
            n,
            0,
            &CompilerKind::GENERAL,
        ));
    }
    rows.extend(recompute_fig09_rows(
        WorkloadKind::QaoaRegular(3),
        4,
        0,
        &CompilerKind::QAOA,
    ));
    rows
}

/// The recomputed Fig. 10 subset, in golden-file order.
fn fig10_subset() -> Vec<String> {
    let rows = run_qaoa_fidelity(&[4], 1, &[1, 2, 3]);
    assert_eq!(rows.len(), 18, "6 compiler curves × 3 layer counts");
    rows.iter().map(|r| r.csv_line()).collect()
}

/// Rewrites the golden files from a fresh recomputation.  Run explicitly
/// with `cargo test -p twoqan-bench --test golden_snapshots -- --ignored`
/// when a change intentionally shifts the figures, then review the diff.
#[test]
#[ignore = "regenerates tests/golden/*; run explicitly and review the diff"]
fn regenerate_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let write = |name: &str, header: String, rows: Vec<String>| {
        let mut content = header;
        content.push('\n');
        content.push_str(&rows.join("\n"));
        content.push('\n');
        fs::write(dir.join(format!("{name}.csv")), content).unwrap();
    };
    write("fig09_subset", MetricsRow::csv_header(), fig09_subset());
    write(
        "fig10_subset",
        twoqan_bench::figures::FidelityRow::csv_header().to_string(),
        fig10_subset(),
    );
    fs::write(dir.join("table03.txt"), run_table3().render()).unwrap();
}

#[test]
fn fig09_rows_match_the_golden_snapshot() {
    let golden = golden_lines("fig09_subset");
    assert_eq!(golden[0], MetricsRow::csv_header());
    let recomputed = fig09_subset();
    assert_eq!(
        golden[1..].to_vec(),
        recomputed,
        "fig09 rows drifted from tests/golden/fig09_subset.csv — \
         regenerate the golden file (and review the diff) if intentional"
    );
}

#[test]
fn fig10_rows_match_the_golden_snapshot() {
    let golden = golden_lines("fig10_subset");
    assert_eq!(golden[0], twoqan_bench::figures::FidelityRow::csv_header());
    let recomputed = fig10_subset();
    assert_eq!(
        golden[1..].to_vec(),
        recomputed,
        "fig10 rows drifted from tests/golden/fig10_subset.csv — \
         regenerate the golden file (and review the diff) if intentional"
    );
}

#[test]
fn table03_matches_the_golden_snapshot() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/table03.txt");
    let golden =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        run_table3().render(),
        golden,
        "Table III drifted from tests/golden/table03.txt — \
         regenerate the golden file (and review the diff) if intentional"
    );
}

/// Locally regenerated figure CSVs (when present) must agree with the
/// golden rows, so a stale `results/` regeneration is caught too.
#[test]
fn regenerated_figure_csvs_agree_with_the_golden_rows() {
    for (name, golden) in [
        ("fig09", golden_lines("fig09_subset")),
        ("fig10", golden_lines("fig10_subset")),
    ] {
        let path = results_dir().join(format!("{name}.csv"));
        let Ok(content) = fs::read_to_string(&path) else {
            continue; // not regenerated locally — nothing to cross-check
        };
        let stored: BTreeSet<&str> = content.lines().collect();
        for line in &golden[1..] {
            assert!(
                stored.contains(line.as_str()),
                "{} is stale: missing golden row (rerun the {name} binary):\n  {line}",
                path.display()
            );
        }
    }
}
