#!/usr/bin/env bash
# CI pipeline: tier-1 build + full ctest, the perf smoke label, the obs
# label (observability/analysis unit tests), sanitizer jobs over the
# threaded decoders and the fault-injection/recovery paths, the soak
# fuzzer, the bench regression diff, and a repo hygiene lint. Each stage is
# independently selectable (docs/CI.md):
#
#   scripts/ci.sh              # tier1 + perfsmoke + obs
#   scripts/ci.sh tier1        # build + full ctest only
#   scripts/ci.sh tier1-scalar # full ctest with PMP2_KERNELS=scalar
#   scripts/ci.sh perfsmoke    # ctest -L perfsmoke
#   scripts/ci.sh obs         # ctest -L obs
#   scripts/ci.sh tsan        # TSan build of the parallel decoder + fault tests
#   scripts/ci.sh ubsan       # UBSan build of the SWAR scanner fuzz tests
#   scripts/ci.sh asan        # ASan build of decoder/concealment/fault tests
#   scripts/ci.sh soak        # pmp2_soak fault-injection fuzz (small budget)
#   scripts/ci.sh serve       # DecodeServer gate: loadgen smoke + isolation soak
#   scripts/ci.sh bench       # quick bench suite diffed vs BENCH_parallel.json
#   scripts/ci.sh prof        # counter profiling: probe, unit tests, e2e
#   scripts/ci.sh lint        # repo hygiene (no tracked ignored files)
#   scripts/ci.sh all         # everything
#
# Build dirs: build/ (tier1, reused), build-tsan/, build-ubsan/ and
# build-asan/ (sanitizer jobs poison the object cache otherwise).
#
# Knobs: CI_JOBS (parallelism), CI_SOAK_BUDGET (soak stage time budget,
# default 20s), CI_SERVE_BUDGET (serve stage per-run wall budget in
# seconds, default 120).
set -u -o pipefail

STAGE="${1:-default}"
JOBS="${CI_JOBS:-$(nproc)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

run() { echo "+ $*"; "$@"; }

build_tier1() {
  run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release || return 1
  run cmake --build build -j "$JOBS" || return 1
}

stage_tier1() {
  build_tier1 || return 1
  run ctest --test-dir build --output-on-failure -j "$JOBS"
}

stage_tier1_scalar() {
  # The full suite again with the kernel dispatch pinned to the scalar
  # backend: proves no test outcome depends on the host's SIMD selection
  # (every checksum, PSNR and conceal byte must be backend-invariant).
  build_tier1 || return 1
  run env PMP2_KERNELS=scalar \
      ctest --test-dir build --output-on-failure -j "$JOBS"
}

# Kernel backends this host can run. AVX2 is probed (CI runners differ),
# never assumed; scalar and SSE2 are x86-64 baseline.
kernel_backends() {
  local backends="scalar sse2"
  if grep -qiw avx2 /proc/cpuinfo 2>/dev/null; then
    backends="$backends avx2"
  else
    echo "ci.sh: host lacks AVX2; skipping avx2 kernel runs" >&2
  fi
  echo "$backends"
}

stage_perfsmoke() {
  build_tier1 || return 1
  run ctest --test-dir build --output-on-failure -L perfsmoke
}

stage_obs() {
  build_tier1 || return 1
  run ctest --test-dir build --output-on-failure -L obs -j "$JOBS"
}

stage_tsan() {
  # Dedicated tree: sanitizer flags poison the cache otherwise. Only the
  # threaded targets matter under TSan; the sim and codec are single-thread.
  # test_fault rides along: quarantine/watchdog recovery exercises the
  # coordinator's error paths under real thread interleavings. test_live
  # holds the seqlock data-race-free claim (TelemetryCell writer storm +
  # sampler thread). The GOP and adaptive decoders are one-session
  # façades over the DecodeServer engine, so the Parallel*, GopQuarantine
  # and AdaptiveDecoder/AdaptiveStress suites put the engine's claim loop
  # (FIFO pops, whole-vs-exploded dispatch, exploded-picture reference
  # handoffs) under real contention, and
  # AdaptiveDecoder.FourWorkersBindProfilerSlotsConcurrently proves
  # StageProfiler::bind race-free. The 16-stream checksum matrix is
  # stream-content coverage that tier-1 already runs and would dominate
  # this stage's wall time under TSan. test_serve's Server/ServerLifecycle
  # suites put the DecodeServer's session lifecycle (concurrent open,
  # decode, cancel, teardown over one shared pool) under the same lens;
  # the single-threaded Admission/Fairness math stays in tier-1.
  run cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPMP2_SANITIZE=thread || return 1
  run cmake --build build-tsan -j "$JOBS" \
      --target test_parallel test_parallel_stress test_obs test_fault \
      test_live test_adaptive test_serve || return 1
  run ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R 'Parallel|Stress|Tracer|Obs|FaultInjection|GopQuarantine|TelemetryCell|SlidingWindow|LiveSampler|Exporters|AdaptiveDecoder|AdaptiveStress|Server'
}

stage_ubsan() {
  # The SWAR scanner does unaligned 8-byte loads (via memcpy, which must
  # stay UBSan-clean) — run the fuzz/oracle tests and the bitstream unit
  # tests under -fsanitize=undefined to prove it. test_prof rides along:
  # the sampling profiler's SIGPROF handler walks and hashes raw return
  # addresses, exactly the kind of pointer arithmetic UBSan polices.
  run cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPMP2_SANITIZE=undefined || return 1
  run cmake --build build-ubsan -j "$JOBS" \
      --target test_startcode_fuzz test_bitstream test_kernel_equivalence \
      test_prof || return 1
  run ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" \
      -R 'StartcodeFuzz|BitReader|BitWriter|Startcode|SamplingProfiler|CollapsedStacks' \
      || return 1
  # Kernel equivalence + fuzz once per host-supported backend: the SIMD
  # intrinsics' shifts, widenings and sign tricks must be UBSan-clean for
  # every dispatch choice, not just the CPUID default.
  local backend
  for backend in $(kernel_backends); do
    run env PMP2_KERNELS="$backend" \
        ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" \
        -R 'IdctEquivalence|FormPredictionEquivalence|BackendEquivalence' \
        || return 1
  done
}

stage_asan() {
  # Corrupt bitstreams are exactly where out-of-bounds reads would hide:
  # run the decoder error paths (concealment, fault injection, startcode
  # fuzz) under AddressSanitizer.
  run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPMP2_SANITIZE=address || return 1
  run cmake --build build-asan -j "$JOBS" \
      --target test_concealment test_fault test_startcode_fuzz || return 1
  run ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
      -R 'Concealment|FaultInjection|GopQuarantine|SimFaultModel|StartcodeFuzz'
}

stage_soak() {
  # Deterministic fault-injection fuzz over the Table 1 stream set: exits
  # nonzero on any crash, hang or recovery-invariant violation. Streams are
  # generated into bench_streams/ on first use.
  build_tier1 || return 1
  run build/tools/pmp2_soak --streams bench_streams \
      --budget "${CI_SOAK_BUDGET:-20s}" --seed 1 \
      --report-out=build/soak_report.json
}

stage_serve() {
  # Multi-stream serving gate (docs/SERVING.md). The serve-labeled unit
  # tests (admission math, fairness sim, backpressure, cancel/teardown
  # leak proofs) run first, then two loadgen runs over the Table 1 stream
  # set, each bounded by CI_SERVE_BUDGET seconds of wall clock so a wedged
  # server fails the stage instead of hanging the runner:
  #   1. smoke: 8 concurrent sessions through one shared 4-worker pool;
  #      the report must be a schema-valid pmp2-bench-report/1 document
  #      (proved by merging it through bench_check).
  #   2. isolation soak: 12 sessions with sessions 2 and 5 corrupted;
  #      --verify-isolation asserts every clean session's checksum is
  #      byte-identical to a solo run of the same stream, and the loadgen
  #      itself asserts every frame pool drained (idle == misses).
  build_tier1 || return 1
  local budget="${CI_SERVE_BUDGET:-120}"
  run ctest --test-dir build --output-on-failure -L serve -j "$JOBS" \
      || return 1
  run timeout "$budget" build/tools/pmp2_loadgen --streams bench_streams \
      --sessions 8 --workers 4 \
      --report-out=build/serve_smoke.json || return 1
  run build/tools/bench_check --merge --out=build/serve_smoke_suite.json \
      build/serve_smoke.json || return 1
  run timeout "$budget" build/tools/pmp2_loadgen --streams bench_streams \
      --sessions 12 --workers 4 --corrupt 2,5 --fault-seed 3 \
      --verify-isolation \
      --report-out=build/serve_isolation.json || return 1
  run build/tools/bench_check --merge \
      --out=build/serve_isolation_suite.json build/serve_isolation.json
}

stage_bench() {
  # Regenerate the quick bench suite with the same pinned knobs the
  # committed baseline was produced with and diff against it. Identity and
  # coverage are strict (a vanished row/report fails); metric deltas are
  # advisory — shared CI runners are too noisy for hard timing gates.
  build_tier1 || return 1
  local out="build/BENCH_candidate.json"
  run env BENCH_SCALE=0.25 BENCH_MAX_RES=704 BENCH_NS_PER_UNIT=100 \
      scripts/bench_all.sh build "$out" || return 1
  run build/tools/bench_check BENCH_parallel.json "$out" \
      --advisory-metrics --tolerance=0.25
}

stage_prof() {
  # Hardware-counter profiling layer (docs/OBSERVABILITY.md "Hardware
  # profiling"). The attribution math runs on FakeCounterSource, so the
  # unit tests pass with or without a PMU; the probe just reports which
  # path (perf vs software fallback) the end-to-end run will exercise.
  build_tier1 || return 1
  run build/tools/pmp2_prof --probe || return 1
  run ctest --test-dir build --output-on-failure -j "$JOBS" \
      -R 'FakeCounterSource|CounterSample|ProbeHost|SoftwareCounterSource|PerfCounterSource|StageProfiler|StageScope|ProfJson|ProfText|CollapsedStacks|SamplingProfiler|TelemetryCounters|BenchCompareCounters' \
      || return 1
  # End-to-end: stage counters + sampling profiler on a real playback run,
  # in whichever mode the host supports, then assert both outputs parse.
  run build/examples/parallel_playback --pictures=26 --workers=2 \
      --prof-counters --prof-json-out=build/ci_prof.json \
      --prof-out=build/ci_prof.folded || return 1
  run build/tools/pmp2_prof --check build/ci_prof.folded || return 1
  run build/tools/pmp2_analyze --prof=build/ci_prof.json || return 1
}

stage_lint() {
  # Generated artifacts must not creep back under version control: fail if
  # any tracked file matches a .gitignore pattern.
  local tracked_ignored
  tracked_ignored="$(git ls-files -i -c --exclude-standard)" || return 1
  if [[ -n "$tracked_ignored" ]]; then
    echo "lint: tracked files match .gitignore patterns:" >&2
    echo "$tracked_ignored" >&2
    return 1
  fi
  echo "lint: OK (no tracked ignored files)"
}

rc=0
case "$STAGE" in
  tier1)     stage_tier1     || rc=1 ;;
  tier1-scalar) stage_tier1_scalar || rc=1 ;;
  perfsmoke) stage_perfsmoke || rc=1 ;;
  obs)       stage_obs       || rc=1 ;;
  tsan)      stage_tsan      || rc=1 ;;
  ubsan)     stage_ubsan     || rc=1 ;;
  asan)      stage_asan      || rc=1 ;;
  soak)      stage_soak      || rc=1 ;;
  serve)     stage_serve     || rc=1 ;;
  bench)     stage_bench     || rc=1 ;;
  prof)      stage_prof      || rc=1 ;;
  lint)      stage_lint      || rc=1 ;;
  default)
    stage_tier1 || rc=1
    # tier1 ran the full suite; the labeled stages just prove the labels
    # select a non-empty subset.
    run ctest --test-dir build -L perfsmoke --output-on-failure || rc=1
    run ctest --test-dir build -L obs --output-on-failure -j "$JOBS" || rc=1
    ;;
  all)
    stage_lint || rc=1
    stage_tier1 || rc=1
    stage_tier1_scalar || rc=1
    run ctest --test-dir build -L perfsmoke --output-on-failure || rc=1
    run ctest --test-dir build -L obs --output-on-failure -j "$JOBS" || rc=1
    stage_tsan || rc=1
    stage_ubsan || rc=1
    stage_asan || rc=1
    stage_soak || rc=1
    stage_serve || rc=1
    stage_bench || rc=1
    stage_prof || rc=1
    ;;
  *)
    echo "ci.sh: unknown stage '$STAGE'" \
         "(tier1|tier1-scalar|perfsmoke|obs|tsan|ubsan|asan|soak|serve|bench|prof|lint|all)" >&2
    exit 2 ;;
esac
exit "$rc"
