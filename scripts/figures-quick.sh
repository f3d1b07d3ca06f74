#!/bin/sh
# Prints the quick-mode report of the deterministic paper-figure
# experiments: the stdout of each exp-* binary below, run in that order
# from an empty working directory, so every cache starts cold. Timing
# lines go to stderr and are not part of the report.
#
# tests/golden/figures_quick.txt is this report, and CI compares a fresh
# one against it byte for byte. Regenerate it after an intentional
# change with:
#
#   cargo build --release -p aix-bench && scripts/figures-quick.sh > tests/golden/figures_quick.txt
#
# The optional argument is the directory holding the exp-* binaries
# (default: target/release).
set -eu

bin_dir=$(cd "${1:-target/release}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
# Run with the default engine, cache location and no fault injection.
unset AIX_SIM_ENGINE AIX_CACHE AIX_JOURNAL AIX_FAULT

for name in fig1 fig2 fig4 fig5 fig7 fig8a fig8b fig8c headline schedule ablation; do
    printf '==================== exp-%s ====================\n\n' "$name"
    "$bin_dir/exp-$name"
done
