#!/usr/bin/env bash
# Build the benchmark and the lcmm executable from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from anywhere inside an lcmm source tree.  Build products go to
# .bench_build and run records to .perfbench at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: $root is not an lcmm source tree" >&2
  exit 2
fi
build=.bench_build
# No shared dune cache: the build reads and writes only inside the tree.
DUNE_CACHE=disabled dune build --root . --build-dir "$build" --profile release \
  perfbench/main.exe bin/lcmm_cli.exe >&2
commit=unknown
if [ -e .git ]; then commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"; fi
PERFBENCH_COMMIT="$commit" exec "$build/default/perfbench/main.exe" \
  --lcmm "$build/default/bin/lcmm_cli.exe" "$@"
