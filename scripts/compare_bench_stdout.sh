#!/usr/bin/env bash
# Run the deterministic bench and example executables of two build
# trees and diff their stdout. A refactor that promises "the same
# bytes from less code" must print exactly what its parent printed:
# every plan, breakdown and timeline summary these executables report
# is a pure function of the simulated workload. The one wall-clock
# reading among them, quickstart's "planning took X ms", is masked.
#
# Each executable runs in its own scratch directory (bench_collectives
# writes BENCH_collectives.json into its working directory; that file
# is compared too). Prints one line per executable and the first
# lines of every diff; exits 1 if any output differs or an executable
# fails, 2 on bad usage.
#
# Usage: scripts/compare_bench_stdout.sh PARENT_BUILD CHANGE_BUILD
set -euo pipefail

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
    echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
    exit 2
fi
builds=("$(cd "$1" && pwd)" "$(cd "$2" && pwd)")

exes=(
    bench_fig01_decoupled_utilization
    bench_fig04_scaling_curves
    bench_fig08_end_to_end
    bench_fig09_case_study
    bench_fig10_time_breakdown
    bench_fig11_optimality
    bench_fig13_dynamic_arrival
    bench_fig13_dynamicity
    bench_fig14_single_task
    bench_fig15_memory
    bench_fig16_spindle_seq
    bench_tab2_larger_scale
    bench_ablation_scheduler
    bench_collectives
    quickstart
)

wallclock='s/planning took [0-9.]+ ms/planning took <wall-clock> ms/'

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
for exe in "${exes[@]}"; do
    for side in 0 1; do
        dir="$work/$side/$exe"
        mkdir -p "$dir"
        if ! (cd "$dir" && "${builds[$side]}/$exe" > stdout 2> stderr); then
            echo "FAIL  $exe (${builds[$side]})"
            tail -n 5 "$dir/stderr"
            status=1
            continue 2
        fi
        rm "$dir/stderr"
        sed -E -i "$wallclock" "$dir/stdout"
    done
    if diff -r "$work/0/$exe" "$work/1/$exe" > "$work/$exe.diff"; then
        echo "same  $exe"
    else
        echo "DIFF  $exe"
        head -n 20 "$work/$exe.diff"
        status=1
    fi
done
exit "$status"
