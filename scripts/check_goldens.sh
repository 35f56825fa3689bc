#!/usr/bin/env bash
# Reruns the committed goldens and fails on any byte of difference:
#
#   scripts/check_goldens.sh OUT_DIR
#
# * the full noise-aware sweep (`bench_noise_aware`) against BENCH_noise.json;
# * the shipping 2QAN-noise portfolio's quality lines (svcbench, every
#   workload, seed 1) against SVCBENCH_quality.txt;
# * the uniform-calibration figures (`fig09_montreal`, `fig10_qaoa_fidelity`
#   --quick) against the golden CSV rows (`golden_snapshots`).
#
# The fresh outputs are left in OUT_DIR: bench_noise_full.json,
# svcbench_all.txt (the whole svcbench report, result lines included) and
# svcbench_quality.txt.  The figure CSVs go to results/ as usual.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
out=$1
mkdir -p "$out"
cd "$(dirname "${BASH_SOURCE[0]}")/.."

echo "== bench_noise_aware against BENCH_noise.json"
cargo run --release -p twoqan-bench --bin bench_noise_aware -- --out "$out/bench_noise_full.json"
cmp "$out/bench_noise_full.json" BENCH_noise.json

echo "== svcbench quality lines against SVCBENCH_quality.txt"
cargo run --release --offline --manifest-path svcbench/Cargo.toml -- \
    --workload all --seed 1 --seconds 1 --trace 0 >"$out/svcbench_all.txt" || {
    cat "$out/svcbench_all.txt"
    exit 1
}
grep -E '^(inputs digest:|(swaps|twoq_gates|twoq_depth|duration_us|log10_inv_esp)_mean )' \
    "$out/svcbench_all.txt" >"$out/svcbench_quality.txt"
diff SVCBENCH_quality.txt "$out/svcbench_quality.txt"

echo "== fig09/fig10 against the golden CSV rows"
cargo run --release -p twoqan-bench --bin fig09_montreal -- --quick
cargo run --release -p twoqan-bench --bin fig10_qaoa_fidelity -- --quick
cargo test --release -q -p twoqan-bench --test golden_snapshots

echo "goldens: pass"
