#!/usr/bin/env bash
# Build the ledger from this checkout's sources, then run it with the
# given arguments (see bench/ledger/README.md).  Build output goes to
# stderr so the ledger's last stdout line stays its JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/ledger/ledger.exe >&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
