#!/usr/bin/env bash
# Sanitizer CI pass for the Alrescha repo:
#
#   1. ASan + UBSan build, full ctest suite.
#   2. TSan build, the suites that run on thread pools (thread pool,
#      parallel encode/convert/compile determinism, multi-engine
#      scale-out, profiles, concurrent serving, level-parallel SymGS
#      sweeps, backward sweeps over the shared row store on pools),
#      every equivalence suite (scheduled replay against the
#      reference engine, serving) and the timing-memo suite, with a high
#      thread count to provoke races.
#
# Both builds compile the whole tree, the test-only reference engine
# (tests/reference) included.  CI's tsan job runs pass 2 through this
# script, so the list of suites it covers lives only here.
#
# Usage: tools/check_sanitizers.sh [build-dir-prefix] [asan|tsan]
# With no pass named, runs both.  Exits non-zero on any build failure,
# test failure, or sanitizer report.

set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-san}"
pass="${2:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

run_suite() {
    local dir="$1" flags="$2" label="$3"
    shift 3
    echo "== ${label}: configuring ${dir} =="
    cmake -B "${dir}" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="${flags}" \
        -DCMAKE_EXE_LINKER_FLAGS="${flags}" >/dev/null
    echo "== ${label}: building =="
    cmake --build "${dir}" -j "${jobs}" >/dev/null
    echo "== ${label}: testing =="
    (cd "${dir}" && ctest --output-on-failure -j "${jobs}" "$@")
}

asan_pass() {
    # Address + undefined-behaviour pass over the whole suite.
    run_suite "${prefix}-asan" \
        "-fsanitize=address,undefined -fno-sanitize-recover=all" \
        "ASan+UBSan"

    # Re-run the replay dispatch/specialization suites under every
    # forced ISA (same ASan+UBSan build): each pass pushes the
    # auto-dispatched engines through a different kernel table, so
    # misaligned vector loads, bad function-pointer stamps, or
    # out-of-bounds row records in any per-ISA TU trip UBSan here even
    # when auto would pick another table.  Unavailable ISAs exercise the
    # fallback path instead -- also worth sanitizing.
    for isa in scalar sse2 avx2 avx512 neon; do
        echo "== ASan+UBSan (ALR_SIMD_FORCE=${isa}): replay dispatch =="
        (cd "${prefix}-asan" && \
            ALR_SIMD_FORCE="${isa}" ctest --output-on-failure -j "${jobs}" \
                -R 'ReplayDispatch|ReplaySpecialize|ReplayContract|SimdReplay|SweepKernel|SweepLevels|BackwardSweep')
    done
}

tsan_pass() {
    # Thread-sanitizer pass over the parallel suites -- the serve drains
    # among them, whose workers share the process pool for SpMV, SpMM
    # and the levels of wide SymGS sweeps.  ALR_THREADS=8 forces real
    # concurrency even on small CI machines, and there oversubscribes
    # the sweep's level waits.
    ALR_THREADS=8 TSAN_OPTIONS="halt_on_error=1" run_suite "${prefix}-tsan" \
        "-fsanitize=thread" \
        "TSan" \
        -R 'ThreadPool|ParallelPipeline|Multi|Mmio|Equivalence|Profile|Serve|TimingMemo|SweepKernel|SweepLevels|BackwardSweep\..*OnPools'
}

case "${pass}" in
    asan) asan_pass ;;
    tsan) tsan_pass ;;
    all) asan_pass; tsan_pass ;;
    *) echo "usage: $0 [build-dir-prefix] [asan|tsan]" >&2; exit 2 ;;
esac

echo "== sanitizers: ${pass} clean =="
