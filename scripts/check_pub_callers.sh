#!/usr/bin/env bash
# Fails when a library item has no caller outside tests:
#
#   scripts/check_pub_callers.sh
#
# Every `pub fn`, `pub struct`, `pub enum` and `pub const` above its file's
# first `#[cfg(test)]` in crates/*/src and src/ must have its whole-word name
# appear somewhere else in non-test code: the library (above each file's
# first `#[cfg(test)]`), crates/bench/src/bin, examples/ and svcbench/src.
# `//` lines and `pub use` lines do not count, nor does the item's own
# definition.  This is one pass: deleting a listed item can leave another
# without a caller, which the next run lists.  A text scan cannot see an
# item whose name appears only in its own impls or is shared with a common
# method (`clear`, `label`), so those still need a reviewer's eye.
#
# A name in KEEPERS stays, with its reason; any other listed name fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# name, then the reason: the test in another crate that needs the item and
# why the remaining API cannot express that test.
KEEPERS='
spawned_thread_census  crates/{core,pool,sim}/tests/thread_census.rs count the threads an operation spawns; no other API exposes the pool spawn count
approx_eq_up_to_phase  the twoqan decompose tests (decomposition_identities_hold_numerically, decomposition_respects_operand_order, sequential_decomposition_matches_matrix_product) check a synthesis that is exact only up to a global phase; twoqan-math has no other phase-insensitive comparison
embed_single  the twoqan decompose tests (decomposition_identities_hold_numerically, decomposition_respects_operand_order, sequential_decomposition_matches_matrix_product) multiply single-qubit gates into a pair unitary on either operand, and the root tests/properties.rs (numeric_and_analytic_weyl_agree, unitary_products_stay_unitary) dress gates locally; twoqan-math has no other operand-indexed embedding
exchange_qubits  the twoqan decompose tests (decomposition_respects_operand_order and the three named above through their fragment product) reverse a two-qubit matrix whose operands are swapped; twoqan-math has no other operand exchange
s_gate  the twoqan-sim kernel test single_kernels_match_naive_on_all_qubits checks the S kernel against the naive loop; twoqan-math has no other S constructor
try_with_calibration  the twoqan-sim trajectory tests (noisy_trajectories_shrink_the_signal, serial_and_parallel_shots_are_bit_identical, naive_and_kernelized_engines_agree_statistically) need a noise model over an exaggerated calibration; NoiseModel reads Device::calibration(), which nothing else sets
'

# Non-test code: each file up to its first `#[cfg(test)]`.
non_test() {
    awk '/#\[cfg\(test\)\]/ { nextfile } { print }' "$@"
}
mapfile -t lib_files < <(find crates/*/src src -name '*.rs' -not -path 'crates/bench/src/bin/*' | sort)
mapfile -t caller_files < <(find crates/bench/src/bin examples svcbench/src -name '*.rs' | sort)
corpus=$(non_test "${lib_files[@]}" "${caller_files[@]}" | grep -vE '^\s*//|^\s*pub use ')
# Every whole word of the corpus with its count, looked up once per name.
counts=$(grep -oE '[A-Za-z_][A-Za-z0-9_]*' <<<"$corpus" | sort | uniq -c)

def='^\s*pub (const |unsafe )*(fn|struct|enum|const) '
definitions=$(non_test "${lib_files[@]}" | grep -oE "${def}[A-Za-z_][A-Za-z0-9_]*" | sed -E "s/${def}//" | sort | uniq -c)

status=0
kept=0
while read -r defs name; do
    uses=$(awk -v n="$name" '$2 == n { print $1 }' <<<"$counts")
    if ((${uses:-0} > defs)); then
        continue
    fi
    if grep -qE "^${name} " <<<"$KEEPERS"; then
        kept=$((kept + 1))
        continue
    fi
    where=$(grep -nE "${def}${name}\\b" "${lib_files[@]}" | head -1 | cut -d: -f1,2 || true)
    echo "no non-test caller: $name ($where)"
    status=1
done <<<"$definitions"

if ((status)); then
    echo "delete these items (and the tests that test only them), or add a keeper with its reason"
else
    echo "pub callers: pass ($kept keepers)"
fi
exit $status
