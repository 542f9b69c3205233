# Tier-1 gate: build + unit tests + a batch-engine smoke over the full
# 3-input function space (256 functions, exercises NPN sharing, the
# persistent cache and the domain pool end to end), plus a fault-injection
# smoke: the batch must survive injected worker crashes and a corrupted
# cache file (quarantining it) and still exit 0 via retries + fallbacks,
# plus a serve smoke: daemon round trip over a Unix socket, SIGTERM drain,
# clean exit and no leaked socket file, plus a ladder smoke: the incremental
# assumption-ladder sweep and the monolithic fresh-solver oracle must agree
# on every verdict, both minima and circuit re-verification over a small
# spec set, plus a map smoke: the cut-based technology mapper must compile
# two wider-than-SAT-cap workloads onto verified schedules (row-by-row
# simulator validation is part of the command's own exit status), plus an
# atlas smoke: build a tiny exact NPN atlas, deep-verify it, and prove the
# zero-SAT serve path (a covered sweep and a daemon request answered
# entirely from the atlas — no solver calls, no fallbacks), plus a cluster
# smoke: two supervised shards behind the failover router, one SIGKILLed
# mid-stream and restarted, with every single client request still
# answered through replica failover.

SMOKE_CACHE := $(shell mktemp -u /tmp/mmsynth_smoke_XXXXXX.cache)
MAP_CACHE   := $(shell mktemp -u /tmp/mmsynth_map_XXXXXX.cache)
XBAR_CACHE  := $(shell mktemp -u /tmp/mmsynth_xbar_XXXXXX.cache)
RESYN_CACHE := $(shell mktemp -u /tmp/mmsynth_resyn_XXXXXX.cache)
RESYN_ART   := $(shell mktemp -u /tmp/mmsynth_resyn_XXXXXX.json)
FAULT_CACHE := $(shell mktemp -u /tmp/mmsynth_fault_XXXXXX.cache)
SERVE_SOCK  := $(shell mktemp -u /tmp/mmsynth_serve_XXXXXX.sock)
SERVE_CACHE := $(shell mktemp -u /tmp/mmsynth_serve_XXXXXX.cache)
ATLAS_FILE  := $(shell mktemp -u /tmp/mmsynth_atlas_XXXXXX.mmatlas)
ATLAS_SOCK  := $(shell mktemp -u /tmp/mmsynth_atlas_XXXXXX.sock)
CLUSTER_SOCK := $(shell mktemp -u /tmp/mmsynth_cluster_XXXXXX.sock)
CLUSTER_DIR  := $(shell mktemp -u /tmp/mmsynth_cluster_XXXXXX)
MMSYNTH     := _build/default/bin/mmsynth.exe

.PHONY: all build test smoke smoke-fault smoke-serve smoke-ladder \
  smoke-prove smoke-map smoke-xbar smoke-resyn smoke-atlas smoke-cluster \
  check bench bench-ladder bench-prove bench-map bench-xbar bench-resyn \
  bench-robustness bench-serve bench-storm bench-atlas perf-ab clean

all: build

build:
	dune build

test: build
	dune runtest

smoke: build
	dune exec bin/mmsynth.exe -- batch --sweep 3 --cache $(SMOKE_CACHE) \
	  --timeout 30
	dune exec bin/mmsynth.exe -- batch --sweep 3 --cache $(SMOKE_CACHE) \
	  --timeout 30
	rm -f $(SMOKE_CACHE)

smoke-fault: build
	dune exec bin/mmsynth.exe -- batch --sweep 2 --cache $(FAULT_CACHE) \
	  --timeout 10 --inject worker:0.3 --inject-seed 7 --retries 2 \
	  --fallback baseline
	echo "trailing garbage to damage the cache" >> $(FAULT_CACHE)
	dune exec bin/mmsynth.exe -- batch --sweep 2 --cache $(FAULT_CACHE) \
	  --timeout 10 --inject worker:0.3 --inject-seed 7 --retries 2 \
	  --fallback baseline
	test -f $(FAULT_CACHE).corrupt
	rm -f $(FAULT_CACHE) $(FAULT_CACHE).corrupt

# The daemon is started from the built binary directly (not via dune exec)
# so SIGTERM reaches it and `wait` reports its own exit status.
smoke-serve: build
	@set -e; \
	$(MMSYNTH) serve --socket $(SERVE_SOCK) --cache $(SERVE_CACHE) -j 2 & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -S $(SERVE_SOCK) ] && break; sleep 0.1; done; \
	[ -S $(SERVE_SOCK) ] || { echo "daemon never bound $(SERVE_SOCK)"; kill $$pid 2>/dev/null; exit 1; }; \
	$(MMSYNTH) client --socket $(SERVE_SOCK) -e "x1 & x2" \
	  || { echo "client synth failed"; kill $$pid 2>/dev/null; exit 1; }; \
	$(MMSYNTH) client --socket $(SERVE_SOCK) --stats > /dev/null \
	  || { echo "client stats failed"; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid; rc=$$?; \
	[ $$rc -eq 0 ] || { echo "daemon exited $$rc after SIGTERM"; exit 1; }; \
	[ ! -e $(SERVE_SOCK) ] || { echo "leaked socket $(SERVE_SOCK)"; exit 1; }; \
	rm -f $(SERVE_CACHE); \
	echo "smoke-serve: OK (round trip + graceful drain, no leaked socket)"

# Differential gate for the incremental ladder: the same minimization run
# through the assumption ladder and through the monolithic oracle must
# produce identical attempt verdicts, identical N_R/N_VS minima and a
# re-verified circuit on both paths. Solve times and encoding sizes are
# expected to differ, so those fields are stripped before diffing.
smoke-ladder: build
	@set -e; \
	tmp=$$(mktemp -d /tmp/mmsynth_ladder_XXXXXX); \
	for e in 'x1 ^ x2' '(x1 | x2) & x3' '(x1 & x2) | (~x1 & x3)' \
	  'x1 ^ x2 ^ x3' 'x1 & (x2 | ~x3)'; do \
	  $(MMSYNTH) synth --minimize --timeout 30 -e "$$e" \
	    | grep -E '^(tried|N_R minimal|simulator validation)' \
	    | sed -E 's/ *\([0-9]+ vars.*\)//' > $$tmp/inc.txt; \
	  $(MMSYNTH) synth --minimize --timeout 30 --no-incremental -e "$$e" \
	    | grep -E '^(tried|N_R minimal|simulator validation)' \
	    | sed -E 's/ *\([0-9]+ vars.*\)//' > $$tmp/mono.txt; \
	  diff -u $$tmp/mono.txt $$tmp/inc.txt || { \
	    echo "smoke-ladder: incremental/monolithic divergence on '$$e'"; \
	    rm -rf $$tmp; exit 1; }; \
	done; \
	rm -rf $$tmp; \
	echo "smoke-ladder: OK (verdicts, minima, re-verification identical across paths)"

# The proof orchestrator must land on exactly the monolithic solver's
# verdicts and minima in both of its modes, and `--replay` makes the run
# exit non-zero unless every point's verdict is reproduced single-core
# from its recorded provenance.
smoke-prove: build
	@set -e; \
	tmp=$$(mktemp -d /tmp/mmsynth_prove_XXXXXX); \
	for e in 'x1 ^ x2' '(x1 & x2) | x3' 'x1 ^ x2 ^ x3'; do \
	  $(MMSYNTH) synth --minimize --timeout 30 --no-incremental -e "$$e" \
	    | grep -E '^(tried|N_R minimal)' \
	    | sed -E 's/ *\([0-9]+ vars.*\)//' > $$tmp/mono.txt; \
	  for mode in portfolio cube; do \
	    $(MMSYNTH) prove --timeout 30 --workers 2 --mode $$mode --replay \
	      -e "$$e" \
	      | grep -E '^(tried|N_R minimal)' \
	      | sed -E 's/ *\([0-9]+ vars.*\)//' > $$tmp/$$mode.txt; \
	    diff -u $$tmp/mono.txt $$tmp/$$mode.txt || { \
	      echo "smoke-prove: $$mode/monolithic divergence on '$$e'"; \
	      rm -rf $$tmp; exit 1; }; \
	  done; \
	done; \
	rm -rf $$tmp; \
	echo "smoke-prove: OK (portfolio and cube verdicts, minima and replays match monolithic)"

# `mmsynth map` exits non-zero unless the stitched schedule re-verifies on
# every input row, so the simulator check is implicit; the second adder run
# must answer its library probes from the shared cache.
smoke-map: build
	dune exec bin/mmsynth.exe -- map --workload adder2 --effort 1 \
	  --cache $(MAP_CACHE) > /dev/null
	dune exec bin/mmsynth.exe -- map --workload adder2 --effort 1 \
	  --cache $(MAP_CACHE) > /dev/null
	dune exec bin/mmsynth.exe -- map --workload majority5 --effort 1 \
	  --cache $(MAP_CACHE) --stats
	rm -f $(MAP_CACHE)

# The crossbar backend, end to end: place and schedule one workload across
# crossbar rows, execute every input row on the crossbar simulator, and
# cross-check the outputs against the 1D line-array backend row by row —
# `map --target xbar` exits non-zero unless both the simulator validation
# and the backend diff pass, and the grep makes the full row counts an
# explicit gate rather than trusting the exit code alone. Resynthesis is a
# line-target pass, so `--target xbar --resyn` must be refused by name.
smoke-xbar: build
	@set -e; \
	out=$$(dune exec bin/mmsynth.exe -- map --workload adder2 --effort 1 \
	  --cache $(XBAR_CACHE) --target xbar --rows 8); \
	echo "$$out" | grep -q "simulator validation: 32/32 rows correct" \
	  || { echo "smoke-xbar: simulator validation failed"; exit 1; }; \
	echo "$$out" | grep -q "cross-check vs 1D backend: 32/32 rows agree" \
	  || { echo "smoke-xbar: backend diff failed"; exit 1; }; \
	if err=$$($(MMSYNTH) map --workload adder2 --effort 1 --target xbar \
	  --resyn 2>&1); then \
	  echo "smoke-xbar: --target xbar --resyn was accepted"; exit 1; fi; \
	echo "$$err" | grep -q -e "--resyn" \
	  || { echo "smoke-xbar: rejection does not name --resyn"; exit 1; }; \
	rm -f $(XBAR_CACHE); \
	echo "smoke-xbar: OK (crossbar schedule verified and matches the 1D backend on all rows)"

# Post-mapping resynthesis must never regress: map the same workload with
# and without --resyn and require the resyn'd step total to be <= the plain
# mapped total (`map` already exits non-zero unless the schedule re-verifies
# on every input row). The emitted --json artifact is then fed back through
# `mmsynth resyn`, which must re-verify and, being a second application of a
# fixed-point optimizer, must not find further gains to reject.
smoke-resyn: build
	@set -e; \
	plain=$$($(MMSYNTH) map --workload adder2 --effort 1 \
	  --cache $(RESYN_CACHE) \
	  | sed -n 's/^steps: .*= \([0-9][0-9]*\);.*/\1/p'); \
	$(MMSYNTH) map --workload adder2 --effort 1 --cache $(RESYN_CACHE) \
	  --resyn --json > $(RESYN_ART); \
	grep -q "simulator validation: 32/32 rows correct" $(RESYN_ART) \
	  || { echo "smoke-resyn: simulator validation failed"; exit 1; }; \
	grep -q "^resyn: " $(RESYN_ART) \
	  || { echo "smoke-resyn: no resyn summary"; exit 1; }; \
	total=$$(sed -n 's/^steps: .*= \([0-9][0-9]*\);.*/\1/p' $(RESYN_ART)); \
	[ -n "$$plain" ] && [ -n "$$total" ] \
	  || { echo "smoke-resyn: could not parse step totals"; exit 1; }; \
	[ "$$total" -le "$$plain" ] \
	  || { echo "smoke-resyn: resyn regressed ($$plain -> $$total steps)"; exit 1; }; \
	$(MMSYNTH) resyn $(RESYN_ART) \
	  | grep -q "rows correct" \
	  || { echo "smoke-resyn: artifact round trip failed"; exit 1; }; \
	rm -f $(RESYN_CACHE) $(RESYN_ART); \
	echo "smoke-resyn: OK (resyn verified, never worse: $$plain -> $$total steps)"

# The zero-SAT serve path, end to end: an exact tiny atlas must answer a
# covered sweep with no solver calls and no fallbacks, both through the
# batch engine and through a daemon round trip, and `atlas verify` must
# accept the artifact it just deep-re-simulated.
smoke-atlas: build
	@set -e; \
	$(MMSYNTH) atlas build $(ATLAS_FILE) --max-n 2 --effort 2 --timeout 30 -j 2; \
	$(MMSYNTH) atlas verify $(ATLAS_FILE); \
	out=$$($(MMSYNTH) batch --sweep 2 --atlas $(ATLAS_FILE) --json); \
	echo "$$out" | grep -q '"sat": 0,' || { echo "smoke-atlas: expected sat=0"; exit 1; }; \
	echo "$$out" | grep -q '"atlas": 16,' || { echo "smoke-atlas: expected atlas=16"; exit 1; }; \
	echo "$$out" | grep -q '"fallbacks": 0,' || { echo "smoke-atlas: expected fallbacks=0"; exit 1; }; \
	echo "$$out" | grep -q '"solver_calls": 0,' || { echo "smoke-atlas: expected solver_calls=0"; exit 1; }; \
	$(MMSYNTH) serve --socket $(ATLAS_SOCK) --atlas $(ATLAS_FILE) -q & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -S $(ATLAS_SOCK) ] && break; sleep 0.1; done; \
	[ -S $(ATLAS_SOCK) ] || { echo "daemon never bound $(ATLAS_SOCK)"; kill $$pid 2>/dev/null; exit 1; }; \
	$(MMSYNTH) client --socket $(ATLAS_SOCK) -e "x1 ^ x2" | grep -q '"provenance": "atlas"' \
	  || { echo "smoke-atlas: request not atlas-served"; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "daemon exited non-zero after SIGTERM"; exit 1; }; \
	rm -f $(ATLAS_FILE); \
	echo "smoke-atlas: OK (verified atlas, zero-SAT sweep, atlas-served daemon request)"

# Two supervised shards behind the router; one is SIGKILLed mid-stream
# (and restarted with backoff) while a steady request stream runs against
# the router socket. Availability gate: every single request must be
# answered — replica failover, not luck.
smoke-cluster: build
	@set -e; \
	$(MMSYNTH) cluster --shards 2 --socket $(CLUSTER_SOCK) \
	  --shard-dir $(CLUSTER_DIR) --chaos-kill-after 2 -q & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -S $(CLUSTER_SOCK) ] && break; sleep 0.1; done; \
	[ -S $(CLUSTER_SOCK) ] || { echo "router never bound $(CLUSTER_SOCK)"; kill $$pid 2>/dev/null; exit 1; }; \
	fails=0; \
	for i in $$(seq 1 40); do \
	  if [ $$((i % 2)) -eq 0 ]; then e="x1 ^ x2"; else e="(x1 & x2) | x3"; fi; \
	  $(MMSYNTH) client --socket $(CLUSTER_SOCK) -e "$$e" --retry-budget 2 \
	    > /dev/null 2>&1 || fails=$$((fails+1)); \
	  sleep 0.1; \
	done; \
	[ $$fails -eq 0 ] || { echo "smoke-cluster: $$fails request(s) lost across the shard kill"; kill $$pid 2>/dev/null; exit 1; }; \
	$(MMSYNTH) client --socket $(CLUSTER_SOCK) --stats | grep -q mmsynth-cluster-stats-v1 \
	  || { echo "smoke-cluster: no cluster stats"; kill $$pid 2>/dev/null; exit 1; }; \
	$(MMSYNTH) client --socket $(CLUSTER_SOCK) --shutdown > /dev/null; \
	wait $$pid; rc=$$?; \
	[ $$rc -eq 0 ] || { echo "cluster exited $$rc after shutdown"; exit 1; }; \
	rm -rf $(CLUSTER_DIR) $(CLUSTER_SOCK); \
	echo "smoke-cluster: OK (40/40 answered across a mid-stream shard kill)"

check: test smoke smoke-fault smoke-serve smoke-ladder smoke-prove smoke-map \
  smoke-xbar smoke-resyn smoke-atlas smoke-cluster

bench:
	dune exec bench/main.exe -- engine

bench-ladder:
	dune exec bench/main.exe -- ladder

bench-prove:
	dune exec bench/main.exe -- prove

bench-map:
	dune exec bench/main.exe -- map

bench-xbar:
	dune exec bench/main.exe -- xbar

bench-resyn:
	dune exec bench/main.exe -- resyn

bench-robustness:
	dune exec bench/main.exe -- robustness

bench-serve:
	dune exec bench/main.exe -- serve

bench-storm:
	dune exec bench/main.exe -- storm

bench-atlas:
	dune exec bench/main.exe -- atlas

# Paired A/B run of perfbench: the working tree against BASE (default the
# last commit), e.g. `make perf-ab BASE=HEAD~1 WORKLOAD=minimize PAIRS=10`;
# WORKLOAD may be a comma list or `all`.
BASE ?= HEAD
WORKLOAD ?= minimize
PAIRS ?= 10
perf-ab:
	bash scripts/perf-ab.sh $(BASE) $(WORKLOAD) $(PAIRS)

clean:
	dune clean
