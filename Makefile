GO ?= go

# gofmt_gate fails, naming them, when tracked Go files are not gofmt-clean.
define gofmt_gate
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt: not formatted:"; echo "$$unformatted"; exit 1; fi
endef

.PHONY: build test check lint bench fuzz profile allocs awake loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the concurrency and robustness gate: vet, then the race
# detector over the code that really runs goroutines — the simulator
# core, the observability layer (one Profiler is shared by runs that
# clock it concurrently, as the benchmark's bare sweep pool does), the
# one durable writer, the cancel watcher through the
# GPU pipeline, the shader helper that runs segments ahead of the timing
# model (inline, handed off and with the helper stalled, its panics and
# its lifecycle), and the jobd worker pool (chaos kill/panic/yank ->
# auto-resume -> byte-identical convergence, the SIGTERM drain/resume
# path, the replay on a fresh machine when a checkpoint is refused, two
# workers writing traced jobs' span dumps and a crash report at once,
# monotone progress, nothing written once Close returns, and a sweep
# restarted from its manifests, five times over), and the process-wide
# texture cache every workload build goes through, which jobd's workers
# share (concurrent builds of one texture wait for one build);
# one pass each of the shader emulator's step benchmark, the GPU
# memory's accessor benchmark, the texture planner's benchmark (which
# also fails if planning a quad allocates), the texture unit's
# request benchmark, the workload build's benchmark (cold and warm),
# the checkpoint capture+encode benchmark (a first capture, and one
# carrying 48 frames) and the job construction benchmark (run.Start for each of
# the benchmark sweep's four job kinds), so they cannot rot;
# then fuzz smokes over the trace reader, the checkpoint container
# reader (a version 3 file, and the same file patched to versions 1, 2
# and 4, which must fail typed) and section codec, the checkpoint's
# GPU memory section decoder, the decoded shader interpreter against
# its reference evaluator, and the DXT encoder against its model.
# Everything else, byte identity included, is in `make test`.
check:
	$(gofmt_gate)
	$(GO) vet ./...
	$(GO) test -race ./internal/core/ ./internal/obsv/... ./internal/fsatomic/...
	$(GO) test -race -run 'Cancel' -count=1 .
	$(GO) test -race -run '^TestRunAhead' -count=1 ./internal/gpu/
	$(GO) test -race -run '^TestJobd(ChaosConvergence|SigtermDrainResume|UnusableCheckpointReplays|ProgressIsMonotone)$$|^TestJobArtifacts$$|^TestFleetMetricsMergeAcrossJobs$$|^TestClosedServerWritesNothing$$' -count=1 ./internal/jobd/
	$(GO) test -race -run '^TestJobdRestartFromManifests$$' -count=5 ./internal/jobd/
	$(GO) test -race -run '^TestTextureCache' -count=1 ./internal/workload/
	$(GO) test -run '^$$' -bench BenchmarkStep -benchtime 1x ./internal/emu/shaderemu
	$(GO) test -run '^$$' -bench BenchmarkGPUMemoryAccess -benchtime 1x ./internal/mem
	$(GO) test -run '^$$' -bench BenchmarkPlanQuad -benchtime 1x ./internal/emu/texemu
	$(GO) test -run '^$$' -bench BenchmarkTextureUnitQuad -benchtime 1x ./internal/gpu
	$(GO) test -run '^$$' -bench BenchmarkBuild -benchtime 1x ./internal/workload
	$(GO) test -run '^$$' -bench BenchmarkCaptureEncode -benchtime 1x ./internal/chkpt
	$(GO) test -run '^$$' -bench BenchmarkStart -benchtime 1x ./internal/run
	$(GO) test -fuzz=FuzzReader -fuzztime=10s ./internal/trace
	$(GO) test -run '^$$' -fuzz=FuzzRead -fuzztime=10s ./internal/chkpt
	$(GO) test -run '^$$' -fuzz=FuzzDecoder -fuzztime=10s ./internal/chkpt
	$(GO) test -run '^$$' -fuzz=FuzzGPUMemoryRestore -fuzztime=10s ./internal/mem
	$(GO) test -run '^$$' -fuzz=FuzzDecodedMatchesReference -fuzztime=10s ./internal/emu/shaderemu
	$(GO) test -run '^$$' -fuzz=FuzzEncodeDXTMatchesModel -fuzztime=10s ./internal/emu/texemu

# lint fails on any tracked Go file gofmt would change, then runs the
# static analyzers when they are installed (neither is vendored; the
# build must not depend on network installs). staticcheck catches
# bug-prone constructs go vet misses; govulncheck flags known CVEs
# reachable from this module.
lint:
	$(gofmt_gate)
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi

# fuzz hammers every untrusted-input decoder: the trace reader, the
# checkpoint container/section codec and the GPU memory section
# (mem.GPU) decoded through it. Corrupt or truncated inputs must
# fail with typed errors, never panic or over-allocate. The shader
# target is differential instead: random programs through the decoded
# quad-at-a-time interpreter and the reference per-lane one must leave
# every register bit-identical, NaN payloads included, on a fresh
# thread and on one Reset for a second program. So is the DXT target:
# random blocks through the encoder and its per-texel model must give
# the same bytes in DXT1, DXT3 and DXT5.
fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/chkpt
	$(GO) test -fuzz=FuzzDecoder -fuzztime=30s ./internal/chkpt
	$(GO) test -run '^$$' -fuzz=FuzzGPUMemoryRestore -fuzztime=30s ./internal/mem
	$(GO) test -run '^$$' -fuzz=FuzzDecodedMatchesReference -fuzztime=30s ./internal/emu/shaderemu
	$(GO) test -run '^$$' -fuzz=FuzzEncodeDXTMatchesModel -fuzztime=30s ./internal/emu/texemu

# loc prints non-test Go lines per directory (cmd/*, internal/*, the
# root package) and their total, then test lines the same way: every
# _test.go outside bench/, with internal/core/coretest — helpers only
# tests import — counted as test code. ROADMAP's line targets are
# tracked with the two totals.
loc:
	@product() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path '*/coretest/*' -exec cat {} + | wc -l; }; \
	tests() { find "$$@" \( -name '*_test.go' -o -path '*/coretest/*.go' \) -exec cat {} + | wc -l; }; \
	for kind in product tests; do \
		total=0; \
		for d in cmd/* internal/* .; do \
			if [ $$d = . ]; then n=$$($$kind . -maxdepth 1); d="(root)"; else n=$$($$kind $$d); fi; \
			total=$$((total + n)); printf '%7d  %s\n' $$n "$$d"; \
		done; \
		printf '%7d  total %s\n' $$total $$kind; \
	done

# bench runs the repository's one benchmark (bench/README.md): six
# workloads, end-to-end host-speed metrics and the per-layer ladder.
bench:
	$(GO) run ./bench

# profile is the three commands every performance change starts and
# ends with: generate one of the benchmark's scenes at the benchmark's
# size as a trace, run it under the CPU profiler, and print the
# cumulative top of the profile (DESIGN.md section 10 reads from it).
# SUPERVISED=1 runs the scene the way jobd runs a job: watchdog armed,
# a checkpoint every 50000 cycles, spans sampled 1 in 64.
# make profile SCENE=doom3|spinner|ut2004 [SUPERVISED=1] [PROFILE_DIR=dir]
#
# allocs is the same run under -allocprofile, every allocation recorded,
# and prints pprof's allocation sites by count, one line of code each:
# the table an allocation change is measured with (DESIGN.md section 10
# "Pooled pipeline objects"). The counts cover the whole process, trace
# loading included.
# make allocs SCENE=doom3|spinner|ut2004 [SUPERVISED=1] [PROFILE_DIR=dir]
#
# awake is the same run under -profile-boxes, reduced to the table
# DESIGN.md section 10 "What a quiet cycle costs" keeps: per box, the
# share of cycles it was clocked on (its samples over the sampled
# cycles), and their sum, the box clocks an average cycle makes. With
# no SCENE it runs doom3, spinner and ut2004 in turn: a change to a park
# or wake site is measured on all three.
# make awake [SCENE=doom3|spinner|ut2004] [PROFILE_DIR=dir]
SCENE ?= doom3
PROFILE_DIR ?= /tmp/attila-profile
profile_supervised := $(if $(SUPERVISED),-watchdog 50000000 -checkpoint-interval 50000 -trace-sample 1/64)
profile_size_doom3 := -width 320 -height 240 -frames 3
profile_size_spinner := -width 256 -height 192 -frames 48
profile_size_ut2004 := -width 256 -height 192 -frames 4
profile_config_doom3 := -config casestudy -tus 1
profile_config_spinner := -config embedded
profile_config_ut2004 := -config baseline-unified
profile_run = $(PROFILE_DIR)/attilasim -trace $(PROFILE_DIR)/$(SCENE).attila $(profile_config_$(SCENE)) $(profile_supervised) -manifest none
define profile_scene
	@test -n "$(profile_size_$(SCENE))" || { echo "make $@: SCENE must be doom3, spinner or ut2004" >&2; exit 2; }
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/ ./cmd/tracegen ./cmd/attilasim
	$(PROFILE_DIR)/tracegen -workload $(SCENE) $(profile_size_$(SCENE)) -out $(PROFILE_DIR)/$(SCENE).attila
endef
profile:
	$(profile_scene)
	$(profile_run) -cpuprofile $(PROFILE_DIR)/$(SCENE).prof
	$(GO) tool pprof -top -cum -nodecount 50 $(PROFILE_DIR)/attilasim $(PROFILE_DIR)/$(SCENE).prof
allocs:
	$(profile_scene)
	$(profile_run) -allocprofile $(PROFILE_DIR)/$(SCENE).allocs
	$(GO) tool pprof -sample_index=alloc_objects -lines -top -nodecount 30 $(PROFILE_DIR)/attilasim $(PROFILE_DIR)/$(SCENE).allocs
awake:
ifeq ($(origin SCENE),file)
	@for s in doom3 spinner ut2004; do echo "== $$s"; $(MAKE) --no-print-directory awake SCENE=$$s || exit 1; done
else
	$(profile_scene)
	@$(profile_run) -profile-boxes | awk ' \
		/^simulated / { cycles = $$2; sampled = int((cycles + 63) / 64) } \
		table && NF == 5 { printf "%-22s %5.1f%%\n", $$1, 100 * $$4 / sampled; clocks += $$4 } \
		/^box / { table = 1 } \
		END { printf "%-22s %6.2f box clocks per cycle (%d cycles, 1 in 64 sampled)\n", "all boxes", clocks / sampled, cycles }'
endif
