#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#   bash perfbench/run.sh --workload oltp --seed 1 --seconds 15 --trace 0
# Run from the root of a checkout; see perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not the root of a full checkout (need dune-project and lib/)" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
# The commit in the provenance is this checkout's, never that of a
# repository around it.
export GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
