GO ?= go

# The gate commands cmd/bench<name>; each one's package doc describes
# what its -check gates enforce.
BENCHES := kernels pipeline sampler ingest serve fault eval
BENCH_TARGETS := $(addprefix bench-,$(BENCHES))

.PHONY: lint build test cross fuzz-short perfbench-test race race-pipeline race-fault $(BENCH_TARGETS) bench-baseline check

# Formatting and vet, exactly as CI runs them.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" && echo "$$out" && exit 1; fi
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The dense kernels have an amd64 AVX path (Go assembly) and a portable
# Go fallback for every other architecture; vet the fallback on a 64-bit
# and build it on a 32-bit target so it keeps compiling.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# Ten seconds of coverage-guided fuzzing of the dense kernels: AVX ==
# portable == Ref* on fuzzer-chosen shapes and float32 bit patterns. The
# seed corpus lives in internal/tensor/testdata/fuzz; `go test ./...`
# replays it on every run.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzDenseKernels$$' -fuzztime=10s ./internal/tensor/

# The end-to-end benchmark under perfbench/ is a nested module, so the
# root `go build ./... && go test ./...` never compiles it. Format-check,
# vet and test it against this checkout (its go.mod replaces repro with
# ../), so a change to what it imports fails here, not when the
# benchmark runs. Offline, with the installed toolchain only.
perfbench-test:
	@out=$$(cd perfbench && gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" && echo "$$out" && exit 1; fi
	cd perfbench && GOTOOLCHAIN=local GOPROXY=off $(GO) vet ./...
	cd perfbench && GOTOOLCHAIN=local GOPROXY=off $(GO) test ./...

# Full-epoch NC/LP pipelines and the kernel fan-out under the race
# detector (the kernels spawn real goroutines even at GOMAXPROCS=1).
race:
	$(GO) test -race ./...

# Race coverage focused on the pipelined epoch executor: the executor's
# own ordering/bounding/abort tests plus full NC and LP epochs with
# WithPipeline(2) and WithWorkers(4).
race-pipeline:
	$(GO) test -race ./internal/pipeline/
	$(GO) test -race -run Pipeline ./marius/

# Race coverage focused on the fault-tolerance surface: the injector's
# own determinism/crash tests and the shared transfer loop and atomic
# writer, the storage retry and evict write-back fault tests, serve
# resilience (shedding, deadlines, panic containment), the crash-resume
# differential, and ingest and checkpoint restore under IO weather.
race-fault:
	$(GO) test -race ./internal/fault/
	$(GO) test -race -run 'Fault|Evict|Retry' ./internal/storage/
	$(GO) test -race -run 'Shed|Timeout|Panic|Reload' ./internal/serve/
	$(GO) test -race -run 'Crash|Resume|Journal|Weather' ./internal/ckpt/ ./internal/dataset/ ./marius/

# Short-mode gate run of one benchmark command. The report goes to /tmp
# so the checked-in full-shape baseline is never clobbered with
# incomparable short-mode numbers.
$(BENCH_TARGETS): bench-%:
	$(GO) run ./cmd/bench$* -short -check -o /tmp/BENCH_$*.json

# Refresh the checked-in full-shape baselines (commit the results).
bench-baseline:
	set -e; for b in $(BENCHES); do $(GO) run ./cmd/bench$$b -check -o BENCH_$$b.json; done

# The full local gate: everything CI runs.
check: lint build test cross fuzz-short perfbench-test race race-pipeline race-fault $(BENCH_TARGETS)
