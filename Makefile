# Tier-1 gate: build + unit tests + a batch-engine smoke over the full
# 3-input function space (256 functions, exercises NPN sharing, the
# persistent cache and the domain pool end to end), plus a fault-injection
# smoke: the batch must survive injected worker crashes and a corrupted
# cache file (quarantining it and writing the salvaged entries back) and
# still exit 0 via retries + fallbacks,
# plus a serve smoke: daemon round trip over a Unix socket, SIGTERM drain,
# clean exit and no leaked socket file, plus a ladder smoke: the incremental
# assumption-ladder sweep and the monolithic fresh-solver oracle must agree
# on every verdict, both minima and circuit re-verification over a small
# spec set, plus a CLI smoke: malformed specifications and out-of-range
# counts are refused as usage errors, never as internal errors, and every
# subcommand exits with its status from the one exit table, plus a map smoke: the cut-based technology mapper must compile
# two wider-than-SAT-cap workloads onto verified schedules (row-by-row
# simulator validation is part of the command's own exit status), plus an
# atlas smoke: build a tiny exact NPN atlas, deep-verify it, and prove the
# zero-SAT serve path (a covered sweep and a daemon request answered
# entirely from the atlas — no solver calls, no fallbacks — on the
# connection's reader, as the daemon's stats show), plus a cluster
# smoke: two supervised shards behind the failover router, one SIGKILLed
# mid-stream and restarted, with every single client request still
# answered through replica failover, plus a bench smoke: bench/main.exe
# refuses an unknown experiment or flag before it runs anything,
# reaches ladder-probe with an all-digit table id, and `bench compare`
# passes a BENCH file against itself and names the path of a changed count.

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
  smoke-cli smoke-map smoke-xbar smoke-resyn smoke-atlas smoke-cluster \
  smoke-bench check bench bench-ladder bench-map bench-robustness \
  bench-serve bench-storm bench-atlas perf-ab clean

all: build

build:
	dune build

test: build
	dune runtest

# The warm run answers everything from the cache, so it must leave the
# cache file itself (its inode) in place: a flush writes only what changed.
smoke: build
	dune exec bin/mmsynth.exe -- batch --sweep 3 --cache $(SMOKE_CACHE) \
	  --timeout 30
	@set -e; before=$$(stat -c %i $(SMOKE_CACHE)); \
	dune exec bin/mmsynth.exe -- batch --sweep 3 --cache $(SMOKE_CACHE) \
	  --timeout 30; \
	after=$$(stat -c %i $(SMOKE_CACHE)); \
	[ "$$before" = "$$after" ] || { \
	  echo "smoke: the warm run rewrote its unchanged cache file"; \
	  rm -f $(SMOKE_CACHE); exit 1; }
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
	test -f $(FAULT_CACHE)
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

# Malformed specifications are usage errors: every invocation below must
# exit 124 with a one-line "mmsynth: ..." message, never 125 ("internal
# error") and never a per-job crash inside batch. The inputs cover an
# arity outside 1..24, an --arity below the largest xK used, workload
# sizes whose specs cannot be built or have no inputs (also as an atlas
# --cover, which must not write the atlas), a one-cell truth table, a PLA
# with ".i 0", a --cache or atlas path that cannot hold the file (a
# directory, or a file in a missing directory; serve must refuse it
# before binding its socket), negative counts and an --input row the spec
# does not have, a spec given with batch --sweep, and cluster command lines
# refused before it spawns a shard or creates its shard directory: a bad
# fault plan, a router socket a live daemon already serves, --replicas 0
# and a --chaos-shard outside 0..N-1.
# The exit-table gate then runs each (status, invocation) pair and fails
# on any other status: 3 when the budget runs out, when simulate finds no
# circuit at its dimensions, or when an atlas header is unreadable; 4 when
# resyn is given a circuit that does not realize its spec (a map artifact
# with one spec_tables bit flipped) or a batch job fails verification;
# 124 for removed options. Each case is killed after 30 s (status 137), so
# a daemon that accepts a removed option fails the gate instead of hanging.
smoke-cli: build
	@set -e; \
	tmp=$$(mktemp -d /tmp/mmsynth_cli_XXXXXX); \
	echo 1 > $$tmp/one.tbl; \
	printf '.i 0\n.o 1\n.e\n' > $$tmp/zero.pla; \
	echo "not an atlas" > $$tmp/bad.mmatlas; \
	$(MMSYNTH) map --workload adder2 --effort 1 --json > $$tmp/art.json; \
	awk 't == 1 { sub(/"0/, "\"x"); sub(/"1/, "\"0"); sub(/"x/, "\"1"); t = 2 } \
	  /"tables": \[/ { t = 1 } { print }' $$tmp/art.json > $$tmp/flip.json; \
	$(MMSYNTH) serve --socket $$tmp/live.sock -q & live=$$!; \
	for i in $$(seq 1 100); do [ -S $$tmp/live.sock ] && break; sleep 0.1; done; \
	[ -S $$tmp/live.sock ] || { echo "smoke-cli: serve never bound $$tmp/live.sock"; kill $$live; exit 1; }; \
	fails=0; \
	for args in 'synth --arity 0 -e 1' 'baseline --arity 0 -e 1' \
	  'simulate --arity 0 -e 1' 'check --arity 0 -e 1' \
	  'synth -e x1^x2 --arity 1' 'synth -e x30' 'synth -e x1 --arity 25' \
	  'baseline --workload parity30' 'synth --workload adder0' \
	  'synth --workload parity0' 'synth --workload majority0' \
	  'synth --workload cmp0' "synth --tables $$tmp/one.tbl" \
	  "synth --pla $$tmp/zero.pla" 'batch -e x30' 'batch --arity 0 -e 1' \
	  'batch --workload adder0' "batch --tables $$tmp/one.tbl" \
	  "atlas build $$tmp/c.mmatlas --max-n 1 --effort 1 --cover parity0" \
	  "atlas build $$tmp/c.mmatlas --max-n 1 --effort 1 --cover majority0" \
	  "atlas build $$tmp/c.mmatlas --max-n 1 --effort 1 --cover cmp0" \
	  "atlas build $$tmp --max-n 1 --effort 1" \
	  "atlas build $$tmp/missing/a.mmatlas --max-n 1 --effort 1" \
	  "batch --sweep 1 --cache $$tmp" \
	  "batch --sweep 1 --cache $$tmp/missing/x.cache" \
	  "map --workload adder2 --effort 1 --cache $$tmp" \
	  "serve --socket $$tmp/s.sock --cache $$tmp" \
	  'synth -e x1^x2 --rops=-1' 'synth -e x1^x2 --legs=-1' \
	  'synth -e x1^x2 --steps=-1' 'simulate -e x1^x2 --rops=-1' \
	  'simulate -e x1^x2 --input 4' 'simulate -e x1^x2 --input=-1' \
	  'batch --sweep 2 --limit=-1' 'batch --sweep 1 -e x1&x2&x3' \
	  "cluster --shards 1 --inject bogus:0.5 --socket $$tmp/c.sock --shard-dir $$tmp/shards" \
	  "cluster --shards 1 --socket $$tmp/live.sock --shard-dir $$tmp/shards" \
	  "cluster --shards 2 --replicas 0 --socket $$tmp/c.sock --shard-dir $$tmp/shards" \
	  "cluster --shards 2 --chaos-shard 2 --socket $$tmp/c.sock --shard-dir $$tmp/shards" \
	  "cluster --shards 2 --chaos-shard=-1 --socket $$tmp/c.sock --shard-dir $$tmp/shards"; do \
	  rc=0; out=$$($(MMSYNTH) $$args 2>&1) || rc=$$?; \
	  lines=$$(printf '%s\n' "$$out" | wc -l); \
	  case "$$rc:$$lines:$$out" in \
	    "124:1:mmsynth: "*) ;; \
	    *) echo "smoke-cli: '$$args' exited $$rc: $$out"; fails=$$((fails+1));; \
	  esac; \
	  if printf '%s' "$$out" | grep -q 'internal error'; then \
	    echo "smoke-cli: '$$args' reported an internal error"; fails=$$((fails+1)); fi; \
	done; \
	for f in c.mmatlas s.sock c.sock shards; do \
	  if [ -e $$tmp/$$f ]; then \
	    echo "smoke-cli: a refused invocation left $$f behind"; fails=$$((fails+1)); fi; \
	done; \
	$(MMSYNTH) client --socket $$tmp/live.sock --shutdown > /dev/null; wait $$live; \
	for case in '3 synth -e x1^x2^x3^x4 --rops 3 --legs 4 --steps 6 --timeout 0' \
	  '3 synth --minimize -e (x1&x2)|(x3^x4) --timeout 0' \
	  '3 simulate -e x1^x2^x3 --rops 0 --legs 1 --steps 1' \
	  "4 resyn $$tmp/flip.json" \
	  "3 atlas info $$tmp/bad.mmatlas" "3 atlas verify $$tmp/bad.mmatlas" \
	  '4 batch --sweep 2 --inject verify:1' \
	  '124 batch --sweep 1 --map-large' '124 batch --sweep 1 --resyn' \
	  '124 batch --sweep 1 --no-npn' '124 batch --sweep 1 --no-incremental' \
	  "124 serve --no-incremental --socket $$tmp/n.sock"; do \
	  want=$${case%% *}; args=$${case#* }; \
	  rc=0; timeout -s KILL 30 $(MMSYNTH) $$args > /dev/null 2>&1 || rc=$$?; \
	  [ $$rc -eq $$want ] || { \
	    echo "smoke-cli: '$$args' exited $$rc, expected $$want"; fails=$$((fails+1)); }; \
	done; \
	rm -rf $$tmp; \
	[ $$fails -eq 0 ] || { echo "smoke-cli: $$fails invocation(s) off the exit table"; exit 1; }; \
	echo "smoke-cli: OK (every malformed command line refused with exit 124 and one line; every exit-table case exits with its status)"

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
# explicit gate rather than trusting the exit code alone. The adder3 run on
# 4 rows with one transfer port is the path where the scheduler's window
# bound counts transfer cycles by the port budget. Resynthesis is a
# line-target pass, so `--target xbar --resyn` must be refused by name.
smoke-xbar: build
	@set -e; \
	out=$$(dune exec bin/mmsynth.exe -- map --workload adder2 --effort 1 \
	  --cache $(XBAR_CACHE) --target xbar --rows 8); \
	echo "$$out" | grep -q "simulator validation: 32/32 rows correct" \
	  || { echo "smoke-xbar: simulator validation failed"; exit 1; }; \
	echo "$$out" | grep -q "cross-check vs 1D backend: 32/32 rows agree" \
	  || { echo "smoke-xbar: backend diff failed"; exit 1; }; \
	out=$$(dune exec bin/mmsynth.exe -- map --workload adder3 --effort 1 \
	  --cache $(XBAR_CACHE) --target xbar --rows 4 --ports 1); \
	echo "$$out" | grep -q "simulator validation: 128/128 rows correct" \
	  || { echo "smoke-xbar: adder3 (1 port) simulator validation failed"; exit 1; }; \
	echo "$$out" | grep -q "cross-check vs 1D backend: 128/128 rows agree" \
	  || { echo "smoke-xbar: adder3 (1 port) backend diff failed"; exit 1; }; \
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
# accept the artifact it just deep-re-simulated. Two damaged copies of it,
# one cut mid-record and one with a payload byte flipped, must be reported
# by `atlas info` and `atlas verify` with exit 3 (never a crash), and a
# batch given one must warn and run overlay-only.
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
	stats=$$($(MMSYNTH) client --socket $(ATLAS_SOCK) --stats) \
	  || { echo "smoke-atlas: client --stats failed"; kill $$pid 2>/dev/null; exit 1; }; \
	echo "$$stats" | grep -q '"inline": 1,' \
	  || { echo "smoke-atlas: request not answered inline"; kill $$pid 2>/dev/null; exit 1; }; \
	echo "$$stats" | grep -q '"atlas": 1,' \
	  || { echo "smoke-atlas: request not counted as an atlas answer"; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "daemon exited non-zero after SIGTERM"; exit 1; }; \
	size=$$(wc -c < $(ATLAS_FILE)); \
	head -c $$((size - 10)) $(ATLAS_FILE) > $(ATLAS_FILE).cut; \
	cp $(ATLAS_FILE) $(ATLAS_FILE).flip; \
	off=$$((size - 20)); \
	b=$$(od -An -tu1 -j $$off -N1 $(ATLAS_FILE) | tr -d ' '); \
	printf "\\$$(printf '%03o' $$((b ^ 255)))" \
	  | dd of=$(ATLAS_FILE).flip bs=1 seek=$$off conv=notrunc 2>/dev/null; \
	for f in $(ATLAS_FILE).cut $(ATLAS_FILE).flip; do \
	  for sub in info verify; do \
	    rc=0; $(MMSYNTH) atlas $$sub $$f > /dev/null 2>&1 || rc=$$?; \
	    [ $$rc -eq 3 ] || { echo "smoke-atlas: atlas $$sub on $$f exited $$rc, expected 3"; exit 1; }; \
	  done; \
	  err=$$($(MMSYNTH) batch --sweep 2 --atlas $$f 2>&1 >/dev/null) \
	    || { echo "smoke-atlas: batch with damaged $$f failed"; exit 1; }; \
	  echo "$$err" | grep -q "running overlay-only" \
	    || { echo "smoke-atlas: damaged $$f served without warning"; exit 1; }; \
	done; \
	rm -f $(ATLAS_FILE) $(ATLAS_FILE).cut $(ATLAS_FILE).flip; \
	echo "smoke-atlas: OK (verified atlas, zero-SAT sweep, atlas-served daemon request answered inline, damaged copies refused)"

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
	$(MMSYNTH) client --socket $(CLUSTER_SOCK) --stats | grep -q mmsynth-cluster-stats-v2 \
	  || { echo "smoke-cluster: no cluster stats"; kill $$pid 2>/dev/null; exit 1; }; \
	$(MMSYNTH) client --socket $(CLUSTER_SOCK) --shutdown > /dev/null; \
	wait $$pid; rc=$$?; \
	[ $$rc -eq 0 ] || { echo "cluster exited $$rc after shutdown"; exit 1; }; \
	[ ! -e $(CLUSTER_SOCK) ] || { echo "smoke-cluster: leaked socket $(CLUSTER_SOCK)"; exit 1; }; \
	rm -rf $(CLUSTER_DIR) $(CLUSTER_SOCK); \
	echo "smoke-cluster: OK (40/40 answered across a mid-stream shard kill, no leaked socket)"

# bench/main.exe's command line and `compare`. A refused command line
# exits 2 before any `===` section starts (so before any BENCH file is
# written; the cases run in a scratch directory all the same), an all-digit
# table id reaches ladder-probe's two paths, and compare is clean on a file
# against itself but exits 1 naming the path of one changed count.
smoke-bench: build
	@set -e; \
	bench=$(CURDIR)/_build/default/bench/main.exe; \
	tmp=$$(mktemp -d /tmp/mmsynth_bench_XXXXXX); \
	cd $$tmp; \
	for args in 'nonsense' '--limt 5' '--budget' 'table1 extra' 'compare only-one'; do \
	  rc=0; out=$$($$bench $$args 2>&1) || rc=$$?; \
	  [ $$rc -eq 2 ] || { echo "smoke-bench: '$$args' exited $$rc, expected 2"; exit 1; }; \
	  if printf '%s\n' "$$out" | grep -q '^==='; then \
	    echo "smoke-bench: '$$args' started an experiment"; exit 1; fi; \
	done; \
	[ -z "$$(ls -A)" ] || { echo "smoke-bench: a refused command line left files"; exit 1; }; \
	out=$$($$bench ladder-probe 0001 --budget 5); \
	echo "$$out" | grep -q '^mono: ' && echo "$$out" | grep -q '^inc: ' \
	  || { echo "smoke-bench: ladder-probe 0001 did not run both paths"; exit 1; }; \
	f=$(CURDIR)/BENCH_robustness.json; \
	$$bench compare $$f $$f > /dev/null \
	  || { echo "smoke-bench: compare of a file with itself failed"; exit 1; }; \
	sed '0,/"exact": [0-9]*/s//"exact": -1/' $$f > changed.json; \
	rc=0; out=$$($$bench compare $$f changed.json) || rc=$$?; \
	[ $$rc -eq 1 ] || { echo "smoke-bench: compare of a changed count exited $$rc"; exit 1; }; \
	echo "$$out" | grep -q '^points\[0\]\.exact: ' \
	  || { echo "smoke-bench: compare did not name points[0].exact: $$out"; exit 1; }; \
	cd /; rm -rf $$tmp; \
	echo "smoke-bench: OK (refused command lines exit 2 before any experiment; ladder-probe takes an all-digit id; compare names a changed count)"

check: test smoke smoke-fault smoke-serve smoke-ladder smoke-cli smoke-map \
  smoke-xbar smoke-resyn smoke-atlas smoke-cluster smoke-bench

bench:
	dune exec bench/main.exe -- engine

bench-ladder:
	dune exec bench/main.exe -- ladder

# writes BENCH_map.json, BENCH_xbar.json and BENCH_resyn.json
bench-map:
	dune exec bench/main.exe -- map

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
