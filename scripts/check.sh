#!/usr/bin/env bash
# Full check: configure with ASan+UBSan, build, run every test, then
# smoke-run the benches and validate their metrics JSON output.
# Usage: scripts/check.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

# -Werror: the tree builds warning-free under -Wall -Wextra; keep it so.
cmake -B "$BUILD_DIR" -S . -DPREVER_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
# The crypto kernel differential tests are the gate for the accelerated
# Montgomery / fixed-base / CRT paths: run the binary explicitly so a ctest
# filter or discovery hiccup can never silently skip them in the sanitizer
# configuration.
"$BUILD_DIR"/tests/crypto_diff_test
# Same rule for the compiled-constraint differential fuzz: the bytecode
# evaluator and the incremental aggregate cache must match the interpreter
# over the seeded sweep (window boundaries, absent fields, int64 overflow,
# non-cacheable shapes on the scalar scan) with ASan+UBSan watching both
# paths.
"$BUILD_DIR"/tests/constraint_compiled_diff_test
# Recovery smoke: the WAL codec, checkpoint/journal unit tests and the
# randomized crash-point sweep run explicitly under ASan+UBSan. The WAL is
# the raw FILE* I/O and byte-level frame parser under every durable file —
# exactly where the sanitizers earn their keep — and the sweep's damage
# injection (torn WAL tails, corrupted checkpoint finals) exercises every
# quarantine/fallback branch.
"$BUILD_DIR"/tests/prever_tests --gtest_filter='WalTest.*:RecoveryTest.*'
"$BUILD_DIR"/tests/sim_consensus_test \
    --gtest_filter='*CrashRecovery*:*BoundedByCheckpointInterval*'
scripts/bench_smoke.sh "$BUILD_DIR"

# Causal-trace smoke: a traced E2 run must export a Chrome trace whose span
# trees reconstruct fully connected (every parent present — trace_analyze
# --strict fails on orphans), and the analyzer must produce its per-stage
# critical-path attribution from it. bench_smoke.sh already validated the
# JSON schema; this stage gates the analysis tool itself.
TRACE_FILE="$(mktemp)"
"$BUILD_DIR"/bench/bench_e2_consensus --trace="$TRACE_FILE" \
    --benchmark_filter='BM_TracedPlaintextRaft' >/dev/null 2>&1
if [ ! -s "$TRACE_FILE" ]; then
  echo "check: traced bench wrote an empty trace file" >&2
  rm -f "$TRACE_FILE"
  exit 1
fi
"$BUILD_DIR"/tools/trace_analyze --strict "$TRACE_FILE"
rm -f "$TRACE_FILE"

# Benchmark smoke: configure and build perfbench (Release, through the
# engines' public API) and run every workload at a small op count, so an
# engine API change cannot silently break the benchmark.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j "$(nproc)"
ctest --test-dir build-perfbench -R PreverBenchSmoke --output-on-failure

# Mutation kill matrix: compiles the verification layer with the runtime
# mutation harness in its own tree and requires >= 95% of the registered
# mutants to be killed, with every survivor carrying a vetted rationale.
scripts/mutation_smoke.sh "${MUTATION_BUILD_DIR:-build-mutation}"

# ThreadSanitizer pass over the components that actually share state across
# threads (the thread pool, the lock-based observability registry, the
# ordering layer whose histograms are recorded from pool workers in the
# engine batch paths, the compiled verifier's shared-lock aggregate cache,
# the recovery layer's concurrent state-transfer rebuild, the encrypted
# engine's batch submit, whose pool runs the batched range verifier on
# several proofs at once, and the token engine, whose pool checks one
# update's tokens against the shared spent-serial index). TSan is
# incompatible with ASan, hence its own tree.
TSAN_DIR="${TSAN_BUILD_DIR:-build-tsan}"
cmake -B "$TSAN_DIR" -S . -DPREVER_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$(nproc)" --target prever_tests
"$TSAN_DIR"/tests/prever_tests \
    --gtest_filter='ThreadPool*:Obs*:*Ordering*:*GroupCommit*:*Pipelined*:*AggCacheConcurrency*:*ConcurrentStateTransfer*:*EncryptedBatch*:*TokenPoolSpend*'
