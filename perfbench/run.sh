#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources, then runs it with
# the arguments given (see perfbench/README.md). Build messages go to
# stderr so the result stays the last line of stdout; the shared dune
# cache is off so nothing is written outside the checkout.
#
# The process runs one OCaml domain and is pinned to the first CPU it may
# use: on a shared virtual machine, thread wake-ups across CPUs otherwise
# made the serve workload's latency swing two- to threefold with the
# hypervisor's load.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./perfbench/perfbench.exe >&2
exe=./_build/default/perfbench/perfbench.exe
cpu=$(taskset -cp $$ 2>/dev/null | sed -n 's/.*: *\([0-9]*\).*/\1/p') || cpu=
if [ -n "$cpu" ]; then
  exec taskset -c "$cpu" "$exe" "$@"
fi
exec "$exe" "$@"
