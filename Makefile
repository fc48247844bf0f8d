# Build and verification entry points. `make check` is what CI runs.

GO ?= go
FUZZTIME ?= 15s

.PHONY: all build vet test race fuzz check lint loc bench bench-ab experiments experiments-check experiments-quick serve smoke-serve smoke-cluster smoke-crash smoke-fleet smoke-ondie smoke-overload vulncheck clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzzing rounds on the codec round-trip properties. The committed
# seed corpus under testdata/fuzz/ always runs as part of `make test`;
# this target additionally explores new inputs for FUZZTIME per target.
fuzz:
	$(GO) test -fuzz=FuzzBCHRoundTrip -fuzztime=$(FUZZTIME) ./internal/bch/
	$(GO) test -fuzz=FuzzBCHLineRoundTrip -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -fuzz=FuzzSECDEDLineRoundTrip -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -fuzz=FuzzOnDieWordRoundTrip -fuzztime=$(FUZZTIME) ./internal/ondie/

check: vet build race

# lint runs go vet, fails on any file gofmt would rewrite, and runs
# staticcheck when installed (CI installs it; locally: go install
# honnef.co/go/tools/cmd/staticcheck@latest).
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping"; \
	fi

# loc prints the root module's non-test Go line count (bench/ is its own
# module and is not counted).
loc:
	@find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

# The benchmarks `make bench` and `make bench-ab` time: the hot-loop
# engine benchmark, the per-layer physics sampler benchmarks it is made
# of (crossing times, at the engine benchmark's own K and standalone,
# and the exponential spacings under them; weakest endurances and the
# normal quantile under the latter), one steady-state patrol sweep
# (ns/visit) and one run's set-up on the campaign-cold basic rung, the
# demand generator (one epoch's writes and the Zipf draw under it), one
# replica of the db-oltp campaign and the per-codec decode benchmarks.
BENCH_RE = BenchmarkEngineRun|BenchmarkSweep|BenchmarkNewState|BenchmarkEngineCrossings|BenchmarkSampleCrossings|BenchmarkExponential|BenchmarkSampleWeakest|BenchmarkStdNormalQuantile|BenchmarkZipfSample|BenchmarkWritesInEpoch|BenchmarkRunShard|BenchmarkBCHDecode|BenchmarkSECDEDLineDecode|BenchmarkOnDieDecode
BENCH_PKGS = ./internal/engine ./internal/pcm ./internal/wear ./internal/stats ./internal/trace ./internal/core ./internal/ecc ./internal/ondie

# bench refreshes the committed engine perf baseline: it runs the
# BENCH_RE benchmarks five times each with -benchmem and renders them as
# BENCH_engine.json via cmd/benchjson, each benchmark reported by its
# median run. The reconcile block sets crossing samples, endurance
# draws, the rest of a run's set-up and the patrol visits against an
# engine run.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -benchtime 1s -count 5 \
		$(BENCH_PKGS) | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson > BENCH_engine.json
	@echo "bench: wrote BENCH_engine.json"

# bench-ab REV=<commit> [N=5] compares the working tree with an earlier
# commit. It builds both trees' test binaries for BENCH_PKGS (REV's from
# a `git archive` export in a temporary directory, removed afterwards),
# then runs the two builds' BENCH_RE benchmarks alternately N times,
# flipping which goes first each round, so host drift hits both alike.
# BENCH_engine.json gets the working tree's medians, the reconcile block
# and a changes block with each benchmark's median, interquartile range
# and win count per build.
N ?= 5
bench-ab:
	@test -n "$(REV)" || { echo "bench-ab: set REV=<commit>"; exit 1; }
	@set -e; dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	mkdir -p $$dir/src $$dir/old $$dir/new; \
	git archive $(REV) | tar -x -C $$dir/src; \
	for p in $(BENCH_PKGS); do \
		bin=$$(echo $$p | tr ./ __).test; \
		(cd $$dir/src && $(GO) test -c -o $$dir/old/$$bin $$p); \
		$(GO) test -c -o $$dir/new/$$bin $$p; \
	done; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) = 1 ]; then order="old new"; else order="new old"; fi; \
		for side in $$order; do \
			root=$(CURDIR); [ $$side = old ] && root=$$dir/src; \
			for p in $(BENCH_PKGS); do \
				bin=$$dir/$$side/$$(echo $$p | tr ./ __).test; \
				[ -x $$bin ] || continue; \
				(cd $$root/$$p && $$bin -test.run '^$$' -test.bench '$(BENCH_RE)' \
					-test.benchmem -test.benchtime 1s) >>$$dir/$$side.txt; \
			done; \
		done; \
		echo "bench-ab: round $$i of $(N) done"; \
	done; \
	$(GO) run ./cmd/benchjson -ab $$dir/old.txt <$$dir/new.txt >BENCH_engine.json
	@echo "bench-ab: wrote BENCH_engine.json"

# Regenerate every table at CI scale.
experiments:
	$(GO) run ./cmd/experiments -quick

# EXPERIMENTS_QUICK.txt holds the -quick tables with each experiment's
# "(Fn in Xs)" wall-time line stripped; the rest is a pure function of
# the code and does not depend on GOMAXPROCS.
QUICK_TABLES = EXPERIMENTS_QUICK.txt
STRIP_TIMING = grep -Ev '^\([A-Z][0-9]+ in [0-9.]+s\)$$'

# experiments-check regenerates the -quick tables and fails on any
# difference from the committed copy. After an intended change to the
# results, refresh the copy with `make experiments-quick`.
experiments-check:
	@set -e; out=$$(mktemp); trap 'rm -f $$out' EXIT; \
	$(GO) run ./cmd/experiments -quick -timeout 20m >$$out; \
	$(STRIP_TIMING) $$out | diff -u $(QUICK_TABLES) -; \
	echo "experiments-check: -quick tables match $(QUICK_TABLES)"

experiments-quick:
	@set -e; out=$$(mktemp); trap 'rm -f $$out' EXIT; \
	$(GO) run ./cmd/experiments -quick -timeout 20m >$$out; \
	$(STRIP_TIMING) $$out >$(QUICK_TABLES)

# Run the scrub-simulation daemon (HTTP/JSON API on 127.0.0.1:8344).
serve:
	$(GO) run ./cmd/scrubd

# A tiny job that completes in well under a second.
SMOKE_SPEC = {"mechanism":"basic","workload":"db-oltp","horizon_sec":20000,"geometry":{"channels":1,"ranks_per_chan":1,"banks_per_rank":2,"rows_per_bank":8,"lines_per_row":8,"line_bytes":64}}

# smoke-serve boots scrubd on an ephemeral port, submits SMOKE_SPEC,
# asserts a 200 completed result, and drains the daemon via SIGTERM.
smoke-serve:
	@set -e; \
	dir=$$(mktemp -d); bin=$$dir/scrubd; log=$$dir/scrubd.log; \
	$(GO) build -o $$bin ./cmd/scrubd; \
	$$bin -addr 127.0.0.1:0 >$$log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$log && break; sleep 0.1; done; \
	base=$$(sed -n 's/^scrubd: listening on \(.*\)$$/\1/p' $$log); \
	test -n "$$base"; echo "smoke-serve: daemon at $$base"; \
	id=$$(curl -sf -X POST $$base/v1/jobs -d '$(SMOKE_SPEC)' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	test -n "$$id"; echo "smoke-serve: submitted $$id"; \
	state=""; \
	for i in $$(seq 1 100); do \
		code=$$(curl -s -o /dev/null -w '%{http_code}' $$base/v1/jobs/$$id); \
		test "$$code" = 200; \
		state=$$(curl -sf $$base/v1/jobs/$$id | sed -n 's/.*"state":"\([^"]*\)".*/\1/p'); \
		[ "$$state" = done ] && break; \
		[ "$$state" = failed ] && { echo "smoke-serve: job failed"; cat $$log; exit 1; }; \
		sleep 0.1; \
	done; \
	[ "$$state" = done ] || { echo "smoke-serve: job stuck in $$state"; exit 1; }; \
	curl -sf $$base/v1/jobs/$$id | grep -q '"ues"'; \
	curl -sf $$base/metrics | grep -q 'scrubd_jobs_completed_total 1'; \
	kill -TERM $$pid; wait $$pid; \
	grep -q 'scrubd: stopped' $$log; \
	rm -rf $$dir; \
	echo "smoke-serve: OK"

# smoke-cluster boots a coordinator and two workers, runs a replicated
# job through the sharded cluster path via `scrubsim -submit`, kills one
# worker, and proves the degraded fleet still completes jobs.
smoke-cluster:
	@set -e; \
	dir=$$(mktemp -d); log=$$dir/coord.log; \
	$(GO) build -o $$dir/scrubd ./cmd/scrubd; \
	$(GO) build -o $$dir/scrubsim ./cmd/scrubsim; \
	$$dir/scrubd -addr 127.0.0.1:0 -role coordinator -heartbeat 500ms >$$log 2>&1 & cpid=$$!; \
	trap 'kill $$cpid $$w1 $$w2 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$log && break; sleep 0.1; done; \
	base=$$(sed -n 's/^scrubd: listening on \(.*\)$$/\1/p' $$log); \
	test -n "$$base"; echo "smoke-cluster: coordinator at $$base"; \
	$$dir/scrubd -addr 127.0.0.1:0 -role worker -join $$base -heartbeat 500ms >$$dir/w1.log 2>&1 & w1=$$!; \
	$$dir/scrubd -addr 127.0.0.1:0 -role worker -join $$base -heartbeat 500ms >$$dir/w2.log 2>&1 & w2=$$!; \
	for i in $$(seq 1 100); do \
		curl -sf $$base/healthz | grep -q '"live_workers":2' && break; sleep 0.1; \
	done; \
	curl -sf $$base/healthz | grep -q '"live_workers":2' || { echo "smoke-cluster: workers never joined"; cat $$log; exit 1; }; \
	echo "smoke-cluster: two workers joined"; \
	$$dir/scrubsim -submit $$base -mechanism basic -workload db-oltp -horizon 20000 -replicas 8 >$$dir/job1.out; \
	grep -q 'estimated demand slowdown' $$dir/job1.out; \
	curl -sf $$base/metrics | grep -q 'scrubd_cluster_jobs_sharded_total 1'; \
	echo "smoke-cluster: sharded job completed"; \
	kill $$w1; wait $$w1 2>/dev/null || true; \
	for i in $$(seq 1 100); do \
		curl -sf $$base/healthz | grep -q '"live_workers":1' && break; sleep 0.1; \
	done; \
	curl -sf $$base/healthz | grep -q '"live_workers":1' || { echo "smoke-cluster: dead worker not detected"; exit 1; }; \
	echo "smoke-cluster: worker death detected"; \
	$$dir/scrubsim -submit $$base -mechanism basic -workload db-oltp -horizon 20000 -seed 2 -replicas 8 >$$dir/job2.out; \
	grep -q 'estimated demand slowdown' $$dir/job2.out; \
	echo "smoke-cluster: degraded fleet completed a job"; \
	kill -TERM $$cpid; wait $$cpid 2>/dev/null || true; \
	kill $$w2 2>/dev/null || true; \
	grep -q 'scrubd: stopped' $$log; \
	rm -rf $$dir; \
	echo "smoke-cluster: OK"

# A multi-shard job slow enough (~1s/replica) that scale events land
# mid-campaign.
ELASTIC_SPEC = {"mechanism":"basic","workload":"db-oltp","horizon_sec":1500000,"seed":21,"replicas":8,"geometry":{"channels":1,"ranks_per_chan":1,"banks_per_rank":2,"rows_per_bank":8,"lines_per_row":8,"line_bytes":64}}

# smoke-cluster-elastic proves elastic scale events end to end with real
# processes: a coordinator plus two workers (one behind a seeded
# chaosproxy), a multi-shard campaign during which a third worker joins
# (scale-up) and a worker is SIGKILLed (scale-down), and the final
# result must be byte-identical to the same spec on a clean standalone
# daemon.
smoke-cluster-elastic:
	@set -e; \
	dir=$$(mktemp -d); log=$$dir/coord.log; \
	$(GO) build -o $$dir/scrubd ./cmd/scrubd; \
	$(GO) build -o $$dir/chaosproxy ./cmd/chaosproxy; \
	$$dir/scrubd -addr 127.0.0.1:0 -role coordinator -heartbeat 250ms >$$log 2>&1 & cpid=$$!; \
	trap 'kill -9 $$cpid $$w1 $$w2 $$w3 $$ppid $$clpid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$log && break; sleep 0.1; done; \
	base=$$(sed -n 's/^scrubd: listening on \(.*\)$$/\1/p' $$log); \
	test -n "$$base"; echo "smoke-cluster-elastic: coordinator at $$base"; \
	$$dir/scrubd -addr 127.0.0.1:0 >$$dir/probe.log 2>&1 & tpid=$$!; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$dir/probe.log && break; sleep 0.1; done; \
	wbase=$$(sed -n 's/^scrubd: listening on \(.*\)$$/\1/p' $$dir/probe.log); \
	test -n "$$wbase"; waddr=$${wbase#http://}; \
	kill $$tpid; wait $$tpid 2>/dev/null || true; \
	$$dir/chaosproxy -upstream $$waddr -seed 7 -pass 6 -drop 1 -delay 1 -latency 20ms >$$dir/proxy.log 2>&1 & ppid=$$!; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$dir/proxy.log && break; sleep 0.1; done; \
	purl=$$(sed -n 's/^chaosproxy: listening on \(http[^ ]*\).*/\1/p' $$dir/proxy.log); \
	test -n "$$purl"; echo "smoke-cluster-elastic: chaosproxy $$purl -> $$waddr"; \
	$$dir/scrubd -addr 127.0.0.1:0 -role worker -join $$base -heartbeat 250ms >$$dir/w1.log 2>&1 & w1=$$!; \
	$$dir/scrubd -addr $$waddr -role worker -join $$base -advertise $$purl -heartbeat 250ms >$$dir/w2.log 2>&1 & w2=$$!; \
	joined=""; \
	for i in $$(seq 1 100); do curl -sf $$base/healthz | grep -q '"live_workers":2' && { joined=yes; break; }; sleep 0.1; done; \
	[ "$$joined" = yes ] || { echo "smoke-cluster-elastic: workers never joined"; cat $$log; exit 1; }; \
	echo "smoke-cluster-elastic: two workers joined (one behind chaos)"; \
	id=$$(curl -sf -X POST $$base/v1/jobs -d '$(ELASTIC_SPEC)' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	test -n "$$id"; echo "smoke-cluster-elastic: submitted $$id"; \
	for i in $$(seq 1 100); do curl -s $$base/v1/jobs/$$id | grep -q '"state":"running"' && break; sleep 0.05; done; \
	curl -s $$base/v1/jobs/$$id | grep -q '"state":"running"' || { echo "smoke-cluster-elastic: job never started"; exit 1; }; \
	sleep 0.3; \
	$$dir/scrubd -addr 127.0.0.1:0 -role worker -join $$base -heartbeat 250ms >$$dir/w3.log 2>&1 & w3=$$!; \
	echo "smoke-cluster-elastic: third worker joining mid-campaign"; \
	sleep 0.3; \
	kill -9 $$w1; wait $$w1 2>/dev/null || true; \
	echo "smoke-cluster-elastic: first worker killed mid-campaign"; \
	state=""; \
	for i in $$(seq 1 600); do \
		state=$$(curl -s $$base/v1/jobs/$$id | sed -n 's/.*"state":"\([^"]*\)".*/\1/p'); \
		[ "$$state" = done ] && break; \
		[ "$$state" = failed ] && { echo "smoke-cluster-elastic: job failed"; curl -s $$base/v1/jobs/$$id; cat $$log; exit 1; }; \
		sleep 0.1; \
	done; \
	[ "$$state" = done ] || { echo "smoke-cluster-elastic: job stuck in '$$state'"; cat $$log; exit 1; }; \
	curl -sf $$base/metrics | grep -qx 'scrubd_cluster_workers 3' || { echo "smoke-cluster-elastic: scrubd_cluster_workers != 3"; curl -s $$base/metrics | grep scrubd_cluster_workers; exit 1; }; \
	curl -sf $$base/v1/cluster/workers | grep -q '"id":"worker-003"' || { echo "smoke-cluster-elastic: mid-campaign worker-003 not registered"; curl -s $$base/v1/cluster/workers; exit 1; }; \
	curl -sf $$base/v1/jobs/$$id | sed 's/.*"result"://; s/}$$//' >$$dir/elastic.json; \
	test -s $$dir/elastic.json; \
	$$dir/scrubd -addr 127.0.0.1:0 >$$dir/clean.log 2>&1 & clpid=$$!; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$dir/clean.log && break; sleep 0.1; done; \
	cbase=$$(sed -n 's/^scrubd: listening on \(.*\)$$/\1/p' $$dir/clean.log); \
	test -n "$$cbase"; \
	cid=$$(curl -sf -X POST $$cbase/v1/jobs -d '$(ELASTIC_SPEC)' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	for i in $$(seq 1 600); do \
		curl -s $$cbase/v1/jobs/$$cid | grep -q '"state":"done"' && break; sleep 0.1; \
	done; \
	curl -sf $$cbase/v1/jobs/$$cid | sed 's/.*"result"://; s/}$$//' >$$dir/clean.json; \
	test -s $$dir/clean.json; \
	cmp $$dir/elastic.json $$dir/clean.json || { echo "smoke-cluster-elastic: scale-event result differs from clean run"; exit 1; }; \
	echo "smoke-cluster-elastic: scale-event result is byte-identical to a clean run"; \
	kill -TERM $$ppid; wait $$ppid 2>/dev/null || true; \
	grep -q 'chaosproxy: stopped' $$dir/proxy.log || true; \
	kill -TERM $$cpid $$clpid; wait $$cpid $$clpid 2>/dev/null || true; \
	kill $$w2 $$w3 2>/dev/null || true; \
	rm -rf $$dir; \
	echo "smoke-cluster-elastic: OK"

# A replicated job slow enough (~3s/replica) to kill mid-campaign.
CRASH_SPEC = {"mechanism":"basic","workload":"db-oltp","horizon_sec":4000000,"seed":11,"replicas":8,"geometry":{"channels":1,"ranks_per_chan":1,"banks_per_rank":2,"rows_per_bank":8,"lines_per_row":8,"line_bytes":64}}

# smoke-crash proves crash recovery end to end: boot a journal-backed
# coordinator plus one worker, submit a multi-shard job, kill -9 the
# coordinator mid-campaign, restart it on the same address and journal,
# and assert the recovered job's result is byte-identical to the same
# spec run on a fresh journal-less daemon.
smoke-crash:
	@set -e; \
	dir=$$(mktemp -d); jdir=$$dir/journal; log=$$dir/coord.log; \
	$(GO) build -o $$dir/scrubd ./cmd/scrubd; \
	$$dir/scrubd -addr 127.0.0.1:0 -role coordinator -heartbeat 250ms -journal-dir $$jdir >$$log 2>&1 & cpid=$$!; \
	trap 'kill -9 $$cpid $$wpid $$cpid2 $$clpid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$log && break; sleep 0.1; done; \
	base=$$(sed -n 's/^scrubd: listening on \(.*\)$$/\1/p' $$log); \
	test -n "$$base"; addr=$${base#http://}; echo "smoke-crash: coordinator at $$base"; \
	$$dir/scrubd -addr 127.0.0.1:0 -role worker -join $$base -heartbeat 250ms >$$dir/worker.log 2>&1 & wpid=$$!; \
	for i in $$(seq 1 100); do curl -sf $$base/healthz | grep -q '"live_workers":1' && break; sleep 0.1; done; \
	curl -sf $$base/healthz | grep -q '"live_workers":1' || { echo "smoke-crash: worker never joined"; cat $$log; exit 1; }; \
	id=$$(curl -sf -X POST $$base/v1/jobs -d '$(CRASH_SPEC)' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	test -n "$$id"; echo "smoke-crash: submitted $$id"; \
	for i in $$(seq 1 100); do curl -s $$base/v1/jobs/$$id | grep -q '"state":"running"' && break; sleep 0.05; done; \
	curl -s $$base/v1/jobs/$$id | grep -q '"state":"running"' || { echo "smoke-crash: job never started"; exit 1; }; \
	sleep 0.5; \
	kill -9 $$cpid; wait $$cpid 2>/dev/null || true; \
	echo "smoke-crash: coordinator killed mid-campaign"; \
	$$dir/scrubd -addr $$addr -role coordinator -heartbeat 250ms -journal-dir $$jdir >$$dir/coord2.log 2>&1 & cpid2=$$!; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$dir/coord2.log && break; sleep 0.1; done; \
	grep -q 'journal replayed' $$dir/coord2.log || { echo "smoke-crash: no journal replay on restart"; cat $$dir/coord2.log; exit 1; }; \
	echo "smoke-crash: journal replayed, waiting for the recovered job"; \
	state=""; \
	for i in $$(seq 1 600); do \
		state=$$(curl -s $$base/v1/jobs/$$id | sed -n 's/.*"state":"\([^"]*\)".*/\1/p'); \
		[ "$$state" = done ] && break; \
		[ "$$state" = failed ] && { echo "smoke-crash: recovered job failed"; cat $$dir/coord2.log; exit 1; }; \
		sleep 0.1; \
	done; \
	[ "$$state" = done ] || { echo "smoke-crash: recovered job stuck in '$$state'"; cat $$dir/coord2.log; exit 1; }; \
	curl -sf $$base/v1/jobs/$$id | grep -q '"recovered":true' || { echo "smoke-crash: job not marked recovered"; exit 1; }; \
	curl -sf $$base/metrics | grep -q 'scrubd_recovered_jobs_total 1' || { echo "smoke-crash: recovery metric missing"; exit 1; }; \
	curl -sf $$base/v1/jobs/$$id | sed 's/.*"result"://; s/}$$//' >$$dir/recovered.json; \
	test -s $$dir/recovered.json; \
	$$dir/scrubd -addr 127.0.0.1:0 >$$dir/clean.log 2>&1 & clpid=$$!; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$dir/clean.log && break; sleep 0.1; done; \
	cbase=$$(sed -n 's/^scrubd: listening on \(.*\)$$/\1/p' $$dir/clean.log); \
	test -n "$$cbase"; \
	cid=$$(curl -sf -X POST $$cbase/v1/jobs -d '$(CRASH_SPEC)' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	for i in $$(seq 1 600); do \
		curl -s $$cbase/v1/jobs/$$cid | grep -q '"state":"done"' && break; sleep 0.1; \
	done; \
	curl -sf $$cbase/v1/jobs/$$cid | sed 's/.*"result"://; s/}$$//' >$$dir/clean.json; \
	test -s $$dir/clean.json; \
	cmp $$dir/recovered.json $$dir/clean.json || { echo "smoke-crash: recovered result differs from clean run"; exit 1; }; \
	echo "smoke-crash: recovered result is byte-identical to a clean run"; \
	kill -TERM $$cpid2 $$clpid; wait $$cpid2 $$clpid 2>/dev/null || true; \
	kill $$wpid 2>/dev/null || true; \
	rm -rf $$dir; \
	echo "smoke-crash: OK"

# A tiny 128-line device patrolled fast enough (one chunk per 5ms of
# wall time, 900s of simulated time) that drift CEs cross the repair
# threshold within a second or two of booting.
FLEET_SPEC = {"workload":"idle-archive","seed":42,"geometry":{"channels":1,"ranks_per_chan":1,"banks_per_rank":2,"rows_per_bank":8,"lines_per_row":8,"line_bytes":64},"patrol":{"rate_lines_per_sec":0.035555556,"chunk_lines":32,"tick_millis":5},"repair":{"ce_window_sec":864000,"ce_threshold":2,"spare_budget":8}}

# smoke-fleet boots scrubd with the fleet control plane, registers a
# device, waits for telemetry-driven repair to fire, PATCHes the patrol
# rate live, runs a preempting on-demand region scrub, and checks the
# scrubd_fleet_* metrics before draining.
smoke-fleet:
	@set -e; \
	dir=$$(mktemp -d); bin=$$dir/scrubd; log=$$dir/scrubd.log; \
	$(GO) build -o $$bin ./cmd/scrubd; \
	$$bin -version | grep -q '^scrubd ' || { echo "smoke-fleet: -version broken"; exit 1; }; \
	$$bin -addr 127.0.0.1:0 -fleet >$$log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$log && break; sleep 0.1; done; \
	base=$$(sed -n 's/^scrubd: listening on \(.*\)$$/\1/p' $$log); \
	test -n "$$base"; echo "smoke-fleet: daemon at $$base"; \
	curl -sf $$base/healthz | grep -q '"build"' || { echo "smoke-fleet: healthz missing build stamp"; exit 1; }; \
	id=$$(curl -sf -X POST $$base/v1/fleet/devices -d '$(FLEET_SPEC)' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	test -n "$$id"; echo "smoke-fleet: registered $$id"; \
	fired=""; \
	for i in $$(seq 1 100); do \
		curl -sf $$base/v1/fleet/devices/$$id/repairs | grep -q '"seq":1' && { fired=yes; break; }; \
		sleep 0.1; \
	done; \
	[ "$$fired" = yes ] || { echo "smoke-fleet: repair never fired"; curl -s $$base/v1/fleet/devices/$$id; exit 1; }; \
	echo "smoke-fleet: telemetry-driven repair fired"; \
	curl -sf -X PATCH $$base/v1/fleet/devices/$$id/patrol -d '{"rate_lines_per_sec":0.1}' \
		| grep -q '"rate_lines_per_sec":0.1' || { echo "smoke-fleet: live PATCH failed"; exit 1; }; \
	echo "smoke-fleet: patrol rate patched mid-session"; \
	sid=$$(curl -sf -X POST $$base/v1/fleet/devices/$$id/scrubs -d '{"first":0,"count":64}' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	test -n "$$sid"; \
	done_=""; \
	for i in $$(seq 1 100); do \
		curl -sf $$base/v1/fleet/devices/$$id/scrubs/$$sid | grep -q '"state":"done"' && { done_=yes; break; }; \
		sleep 0.1; \
	done; \
	[ "$$done_" = yes ] || { echo "smoke-fleet: region scrub never finished"; exit 1; }; \
	curl -sf $$base/v1/fleet/devices/$$id | grep -q '"preemptions":0' && { echo "smoke-fleet: scrub never preempted patrol"; exit 1; }; \
	echo "smoke-fleet: on-demand scrub preempted patrol and completed"; \
	curl -sf $$base/metrics | grep -q 'scrubd_fleet_devices 1' || { echo "smoke-fleet: fleet metrics missing"; exit 1; }; \
	curl -sf $$base/metrics | grep -q 'scrubd_fleet_scrub_jobs_total 1' || { echo "smoke-fleet: scrub-job metric missing"; exit 1; }; \
	curl -sf $$base/metrics | grep 'scrubd_fleet_repairs_total' | grep -qv ' 0$$' || { echo "smoke-fleet: repair metric still zero"; exit 1; }; \
	curl -sf $$base/v1/fleet/devices/$$id/telemetry?limit=5 | grep -q '"window_ces"' || { echo "smoke-fleet: telemetry empty"; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	grep -q 'scrubd: stopped' $$log; \
	rm -rf $$dir; \
	echo "smoke-fleet: OK"

# smoke-ondie proves the on-die ECC + active-profiling path end to end
# through the CLI: the same aged-device run with an on-die code and a
# profiled policy twice must be byte-identical (determinism), carry the
# on-die telemetry table, and honour the Luo-style weak-code flags.
smoke-ondie:
	@set -e; \
	dir=$$(mktemp -d); bin=$$dir/scrubsim; \
	$(GO) build -o $$bin ./cmd/scrubsim; \
	$$bin -workload idle-archive -horizon 40000 -interval 1250 -aged 15000000 \
		-scheme BCH-4 -policy profiled-1 -ondie-t 1 >$$dir/a.out; \
	$$bin -workload idle-archive -horizon 40000 -interval 1250 -aged 15000000 \
		-scheme BCH-4 -policy profiled-1 -ondie-t 1 >$$dir/b.out; \
	cmp $$dir/a.out $$dir/b.out || { echo "smoke-ondie: repeated run differs"; exit 1; }; \
	grep -q 'On-die ECC' $$dir/a.out || { echo "smoke-ondie: on-die table missing"; exit 1; }; \
	grep -q 'profiling rounds' $$dir/a.out || { echo "smoke-ondie: profiling telemetry missing"; exit 1; }; \
	grep -q 'at-risk lines' $$dir/a.out || { echo "smoke-ondie: at-risk telemetry missing"; exit 1; }; \
	echo "smoke-ondie: profiled run deterministic with full telemetry"; \
	$$bin -workload idle-archive -horizon 40000 -aged 15000000 \
		-ondie-t 4 -ondie-weak-t 1 -ondie-weak-frac 0.25 >$$dir/weak.out; \
	grep -q 'weak-code lines' $$dir/weak.out || { echo "smoke-ondie: weak-code telemetry missing"; exit 1; }; \
	grep -q 'check bits saved' $$dir/weak.out || { echo "smoke-ondie: capacity telemetry missing"; exit 1; }; \
	$$bin -ondie-t 99 >/dev/null 2>$$dir/err.out && { echo "smoke-ondie: invalid strength accepted"; exit 1; }; \
	grep -q 'ondie' $$dir/err.out || { echo "smoke-ondie: invalid strength error unhelpful"; exit 1; }; \
	rm -rf $$dir; \
	echo "smoke-ondie: OK"

# smoke-overload floods a deliberately tiny daemon (one worker, short
# queue) with scrubloadgen at small scale and asserts the admission
# machinery end to end: shed-state transitions observed via /healthz, the
# shed counters visible in /metrics, batch submissions group-committed,
# and the daemon back to "healthy" once the flood drains.
smoke-overload:
	@set -e; \
	dir=$$(mktemp -d); log=$$dir/scrubd.log; \
	$(GO) build -o $$dir/scrubd ./cmd/scrubd; \
	$(GO) build -o $$dir/scrubloadgen ./cmd/scrubloadgen; \
	$$dir/scrubd -addr 127.0.0.1:0 -queue 24 -workers 1 -aging 2s >$$log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do grep -q 'listening on' $$log && break; sleep 0.1; done; \
	base=$$(sed -n 's/^scrubd: listening on \(.*\)$$/\1/p' $$log); \
	test -n "$$base"; echo "smoke-overload: daemon at $$base"; \
	$$dir/scrubloadgen -addr $$base -jobs 400 -batch 16 -conc 4 -tenants 3 \
		-unique 60 -out $$dir/bench.json >$$dir/loadgen.out; \
	grep -q 'shed state .* -> ' $$dir/loadgen.out || { echo "smoke-overload: no shed transition observed"; cat $$dir/loadgen.out; exit 1; }; \
	grep -q 'shed state .* -> healthy' $$dir/loadgen.out || { echo "smoke-overload: never transitioned back to healthy"; cat $$dir/loadgen.out; exit 1; }; \
	echo "smoke-overload: shed-state transitions observed"; \
	grep -q 'final state healthy' $$dir/loadgen.out || { echo "smoke-overload: daemon did not recover to healthy"; cat $$dir/loadgen.out; exit 1; }; \
	curl -sf $$base/healthz | grep -q '"state":"healthy"' || { echo "smoke-overload: healthz not healthy after drain"; curl -s $$base/healthz; exit 1; }; \
	echo "smoke-overload: recovered to healthy after drain"; \
	curl -sf $$base/metrics >$$dir/metrics.out; \
	grep -q 'scrubd_batch_requests_total' $$dir/metrics.out || { echo "smoke-overload: batch metrics missing"; exit 1; }; \
	grep 'scrubd_batch_requests_total' $$dir/metrics.out | grep -qv ' 0$$' || { echo "smoke-overload: no batch requests counted"; exit 1; }; \
	{ grep 'scrubd_shed_batch_total' $$dir/metrics.out | grep -qv ' 0$$'; } || \
	{ grep 'scrubd_shed_normal_total' $$dir/metrics.out | grep -qv ' 0$$'; } || \
		{ echo "smoke-overload: shed counters all zero"; cat $$dir/metrics.out; exit 1; }; \
	grep -q 'scrubd_admission_state 0' $$dir/metrics.out || { echo "smoke-overload: admission_state gauge not healthy"; exit 1; }; \
	test -s $$dir/bench.json; \
	kill -TERM $$pid; wait $$pid; \
	grep -q 'scrubd: stopped' $$log; \
	rm -rf $$dir; \
	echo "smoke-overload: OK"

# vulncheck runs the Go vulnerability scanner when installed (CI installs
# it; locally: go install golang.org/x/vuln/cmd/govulncheck@latest).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipping"; \
	fi

clean:
	$(GO) clean ./...
