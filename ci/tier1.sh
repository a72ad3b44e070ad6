#!/usr/bin/env bash
# Every command of the tier-1 CI workflow (.github/workflows/tier1.yml), so a
# leg runs the same on a laptop as on a runner.
#
#   ci/tier1.sh <leg> [step ...]
#
# <leg> is one of the workflow's matrix legs:
#   latest        the newest numpy that pip resolves
#   oldest-numpy  numpy 1.24, the oldest that pyproject.toml admits
#   full          as latest, plus the full-size benchmark and the paper-scale
#                 record (the 3.11 leg: the interpreter the recorded numbers come from)
# Every leg first prints its machine record: the Python and numpy versions,
# whether Python writes bytecode (with PYTHONDONTWRITEBYTECODE set, every fresh
# process compiles the package again, inside the benchmark's setup_s), the OS
# threads a process has after `import numpy`, nproc and the CPU model (the deps
# step prints the numpy it installed).
# With no step, every step of the leg runs, in this order:
#   deps        install numpy, pytest and hypothesis (needs the network)
#   lines       each package module's code lines (ci/code_lines.py: no blank,
#               comment or docstring lines), the count a simplicity change reports
#   tests       the tier-1 suite, timed
#   bench-tiny  the untraced benchmark command on every workload at size tiny
#   bench-full  the same at full size (full leg only)
#   results     the paper-scale record (full leg only)
#   package     install the package from this checkout (needs the network for
#               pip's build isolation)
#   smoke       the installed console script, run the way a user runs it
# Naming steps runs only those, e.g. `ci/tier1.sh full tests bench-full results`.
set -euo pipefail
cd "$(dirname "$0")/.."

leg="${1:?usage: ci/tier1.sh <latest|oldest-numpy|full> [step ...]}"
shift
case "$leg" in
  latest) numpy=">=1.24" steps=(deps lines tests bench-tiny package smoke) ;;
  oldest-numpy) numpy="==1.24.*" steps=(deps lines tests bench-tiny package smoke) ;;
  full) numpy=">=1.24" steps=(deps lines tests bench-tiny bench-full results package smoke) ;;
  *) echo "unknown leg: $leg" >&2; exit 2 ;;
esac
if [ "$#" -gt 0 ]; then
  steps=("$@")
fi

# the machine record every measured number carries
machine() {
  python -c 'import platform; print("python", platform.python_version())'
  numpy_version
  python -c 'import sys; print("dont_write_bytecode", sys.flags.dont_write_bytecode)'
  numpy_threads
  echo "nproc $(nproc)"
  echo "cpu $(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')"
}

numpy_version() {
  python -c 'import numpy; print("numpy", numpy.__version__)' 2>/dev/null || echo "numpy not installed"
}

# the OS threads of a process that has imported numpy (field 20 of
# /proc/self/stat): the sweep forks its workers from such a process, and
# Python 3.12 warns at a fork while more than one thread runs
numpy_threads() {
  python -c '
import numpy
try:
    stat = open("/proc/self/stat").read()
except OSError:
    print("threads after import numpy unknown")
else:
    print("threads after import numpy", stat.rpartition(")")[2].split()[17])
' 2>/dev/null || echo "threads after import numpy unknown (numpy not installed)"
}

deps() {
  python -m pip install "numpy$numpy" pytest hypothesis
  numpy_version
}

lines() {
  python ci/code_lines.py src/asyncadmm
}

tests() {
  time PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -m pytest -q --continue-on-collection-errors --durations=10
}

# a failed check exits nonzero
bench-tiny() {
  for workload in paper600 sync600 sweep; do
    python3 benchmarks/run.py --workload "$workload" --size tiny --seconds 1 --trace 0
  done
}

# the default-seed checks that --size tiny skips (paper600's 16 steps,
# sync600's 82 iterations, the sweep.csv digest)
bench-full() {
  for workload in paper600 sync600 sweep; do
    python3 benchmarks/run.py --workload "$workload" --seconds 1 --trace 0
  done
}

# the paper-scale grid (about 45 s), rerun from results/paper600/command.txt
# and compared byte for byte; its wall time is printed, so a record can be
# sized from the CI log
results() {
  time python -m pytest results -q
}

# the [project.scripts] entry point, installed the way a user installs it
package() {
  python -m pip install .
}

smoke() {
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
  # --help builds the flag table from ExperimentConfig's fields, so a field without help text fails here
  asyncadmm run --help
  asyncadmm sweep --help
  asyncadmm run --nodes 8 --kmax 3 --out "$out/run"
  # the exact-averaging baseline, whose record keeps one z row per iteration
  asyncadmm run --mode sync_baseline --nodes 8 --kmax 3 --out "$out/sync"
  test -f "$out/sync/summary.csv"
  # the delivery trace, replayed from the delay stream after the run
  asyncadmm run --nodes 8 --kmax 3 --trace --out "$out/traced"
  test -s "$out/traced/trace.txt"
  # no consensus runs in the baseline, so its trace is an empty file
  asyncadmm run --mode sync_baseline --nodes 8 --kmax 3 --trace --out "$out/sync-traced"
  test -f "$out/sync-traced/trace.txt"
  test ! -s "$out/sync-traced/trace.txt"
  asyncadmm sweep --nodes 8 --kmax 3 --epsilons 0.1 --tau-bars 3 --out "$out/sweep"
  # four cells in the worker pool, submitted by tau_bar descending, then epsilon
  # ascending; the rows come back in key order
  asyncadmm sweep --nodes 8 --kmax 3 --epsilons 0.1,0.01 --tau-bars 1,3 --out "$out/grid"
  test "$(tail -n +2 "$out/grid/sweep.csv" | cut -d, -f1-3 | tr '\n' ' ')" = "0.1,1,ok 0.1,3,ok 0.01,1,ok 0.01,3,ok "
  # a setting every cell shares fails the whole sweep before --out is made
  code=0
  asyncadmm sweep --nodes 8 --kmax 3 --mode bogus --epsilons 0.1 --tau-bars 3 --out "$out/bad" || code=$?
  test "$code" -eq 1
  test ! -e "$out/bad"
  # so does a topology file that is not strongly connected (a 3-node path)
  printf '3\n1 0\n2 1\n' > "$out/path.txt"
  code=0
  asyncadmm sweep --topology "file:$out/path.txt" --kmax 2 --epsilons 0.1 --tau-bars 1,2 --out "$out/path" || code=$?
  test "$code" -eq 1
  test ! -e "$out/path"
  # a negative seed is rejected by name before any draw
  code=0
  asyncadmm run --seed -1 --out "$out/seed" || code=$?
  test "$code" -eq 1
  # a one-node digraph at --dim 1 --seed 1 has the optimum 0.0 exactly: relative_error is inf, not a crash
  printf '1\n' > "$out/one.txt"
  asyncadmm run --topology "file:$out/one.txt" --dim 1 --seed 1 --kmax 3 --out "$out/one"
  test -f "$out/one/summary.csv"
}

echo "::group::machine"
machine
echo "::endgroup::"
for step in "${steps[@]}"; do
  case "$step" in
    deps | lines | tests | bench-tiny | bench-full | results | package | smoke) ;;
    *) echo "unknown step: $step" >&2; exit 2 ;;
  esac
  echo "::group::$step"
  "$step"
  echo "::endgroup::"
done
