#!/usr/bin/env bash
# Smoke-runs every E* bench briefly and validates the machine-readable
# metrics blob each one emits (the PREVER_METRICS_JSON line): it must parse,
# carry the expected schema, and contain at least one histogram with data.
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"

if [ ! -d "$BENCH_DIR" ]; then
  echo "bench_smoke: $BENCH_DIR not found (build first)" >&2
  exit 1
fi

PYTHON="$(command -v python3 || true)"
if [ -z "$PYTHON" ]; then
  echo "bench_smoke: python3 not found; skipping JSON validation" >&2
  exit 0
fi

# Narrow filters keep each bench around a second: one cheap case per binary
# is enough to exercise the instrumentation path and the emit-at-exit hook.
declare -A FILTERS=(
  [bench_e1_ycsb_private_vs_plain]='BM_Plaintext$'
  [bench_e2_consensus]='BM_Raft/3'
  [bench_e3_constraint_verification]='BM_PlaintextEval/100'
  [bench_e4_crowdworking]='BM_DemarcationTrace/2'
  [bench_e5_pir]='BM_XorPirFetch/256'
  [bench_e6_ledger_integrity]='BM_Append/1024'
  [bench_e7_scaling]='BM_PlaintextDataSize/1000'
  [bench_e8_dp_budget]='BM_DpRefusePolicy/100'
)

fail=0
for bench in "${!FILTERS[@]}"; do
  bin="$BENCH_DIR/$bench"
  if [ ! -x "$bin" ]; then
    echo "bench_smoke: FAIL $bench (binary missing)" >&2
    fail=1
    continue
  fi
  out="$("$bin" --benchmark_filter="${FILTERS[$bench]}" \
        --benchmark_min_time=0.01s 2>/dev/null)" || {
    echo "bench_smoke: FAIL $bench (non-zero exit)" >&2
    fail=1
    continue
  }
  line="$(printf '%s\n' "$out" | grep '^PREVER_METRICS_JSON ' | tail -1 || true)"
  if [ -z "$line" ]; then
    echo "bench_smoke: FAIL $bench (no PREVER_METRICS_JSON line)" >&2
    fail=1
    continue
  fi
  if ! printf '%s\n' "${line#PREVER_METRICS_JSON }" | "$PYTHON" -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["schema"] == "prever.metrics.v1", "bad schema"
assert doc["bench"], "missing bench id"
m = doc["metrics"]
for key in ("counters", "gauges", "histograms"):
    assert key in m, f"missing {key} section"
hists = [h for h in m["histograms"] if h["count"] > 0]
assert hists, "no histogram recorded any samples"
for h in hists:
    for key in ("name", "count", "sum", "min", "max", "p50", "p99"):
        assert key in h, f"histogram missing {key}"
'; then
    echo "bench_smoke: FAIL $bench (metrics JSON invalid)" >&2
    fail=1
    continue
  fi
  echo "bench_smoke: OK $bench"
done

# Pipelined-ordering sweep counters: one cheap pipelined case must report
# the batch/window/replica point it measured plus simulated throughput and
# per-payload latency percentiles.
out_json="$(mktemp)"
if "$BENCH_DIR/bench_e2_consensus" \
      --benchmark_filter='BM_RaftPipelined/16/4/5' \
      --benchmark_out="$out_json" --benchmark_out_format=json \
      >/dev/null 2>&1 && "$PYTHON" - "$out_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cases = [b for b in doc.get("benchmarks", [])
         if b.get("run_type") != "aggregate"]
assert cases, "no pipelined case ran"
for b in cases:
    for key in ("sim_commits_per_s", "sim_latency_p50_ms",
                "sim_latency_p99_ms", "batch", "window", "replicas"):
        assert key in b, f"{b['name']} missing counter {key}"
    assert b["sim_commits_per_s"] > 0, "no simulated throughput measured"
EOF
then
  echo "bench_smoke: OK pipelined sweep counters"
else
  echo "bench_smoke: FAIL pipelined sweep counters" >&2
  fail=1
fi
rm -f "$out_json"

# Crash-recovery scenario metrics: the end-to-end crash/recovery case must
# actually crash and recover replicas (recoveries > 0 over its seeds), and
# the recovery instrumentation recorded via src/obs/ must surface both as
# benchmark counters (recovery-time percentiles, checkpoint saves, journal
# replay, state-transfer volume) and in the PREVER_METRICS_JSON blob
# (prever_recovery_time_us histogram with samples + the recovery counters).
recovery_json="$(mktemp)"
recovery_out="$(mktemp)"
if "$BENCH_DIR/bench_e2_consensus" \
      --benchmark_filter='BM_CrashRecovery' \
      --benchmark_out="$recovery_json" --benchmark_out_format=json \
      >"$recovery_out" 2>/dev/null && "$PYTHON" - "$recovery_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cases = [b for b in doc.get("benchmarks", [])
         if b.get("run_type") != "aggregate"]
assert cases, "crash-recovery case did not run"
b = cases[0]
for key in ("recoveries", "committed", "recovery_p50_us", "recovery_p99_us",
            "checkpoint_saves", "journal_entries_replayed",
            "state_transfer_bytes"):
    assert key in b, f"missing counter {key}"
assert b["recoveries"] > 0, "no replica ever crashed and recovered"
assert b["committed"] > 0, "no payloads committed through the scenario"
assert b["checkpoint_saves"] > 0, "no durable checkpoints were written"
assert b["recovery_p99_us"] >= b["recovery_p50_us"] >= 0, \
    "recovery-time percentiles are inconsistent"
print(f"recoveries={b['recoveries']:.0f} "
      f"p50={b['recovery_p50_us']:.0f}us p99={b['recovery_p99_us']:.0f}us "
      f"transfer={b['state_transfer_bytes']:.0f}B")
EOF
then
  line="$(grep '^PREVER_METRICS_JSON ' "$recovery_out" | tail -1 || true)"
  if [ -n "$line" ] && printf '%s\n' "${line#PREVER_METRICS_JSON }" \
      | "$PYTHON" -c '
import json, sys
doc = json.load(sys.stdin)
m = doc["metrics"]
counters = {c["name"] for c in m["counters"]}
for name in ("prever_recovery_checkpoint_saves",
             "prever_recovery_replayed_entries"):
    assert name in counters, f"{name} missing from metrics blob"
hists = {h["name"]: h for h in m["histograms"]}
rec = hists.get("prever_recovery_time_us")
assert rec is not None, "prever_recovery_time_us histogram missing"
assert rec["count"] > 0, "recovery-time histogram recorded no samples"
'; then
    echo "bench_smoke: OK crash-recovery metrics"
  else
    echo "bench_smoke: FAIL crash-recovery metrics blob" >&2
    fail=1
  fi
else
  echo "bench_smoke: FAIL crash-recovery scenario counters" >&2
  fail=1
fi
rm -f "$recovery_json" "$recovery_out"

# Causal-trace export: a traced E2 run (--trace=FILE on the plaintext-over-
# Raft case) must produce schema-valid Chrome trace JSON — only matched
# begin/end pairs exported as "X" events (drop counters live in the
# "prever" metadata), every non-root span's parent present in the same
# trace, per-lane sim timestamps monotone, one root per sampled trace, and
# the full submit -> verify -> queue-wait -> consensus -> ledger-append
# path present. An empty trace file is a failure.
trace_file="$(mktemp)"
if "$BENCH_DIR/bench_e2_consensus" --trace="$trace_file" \
      --benchmark_filter='BM_TracedPlaintextRaft' >/dev/null 2>&1 \
   && "$PYTHON" - "$trace_file" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
assert text.strip(), "traced run wrote an empty trace file"
doc = json.loads(text)
meta = doc["prever"]
assert meta["schema"] == "prever.trace.v1", "bad trace schema"
assert meta["traces_sampled"] > 0, "no traces sampled"
events = doc["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
instants = [e for e in events if e.get("ph") == "i"]
assert spans, "no spans exported"
assert len(spans) == meta["spans_exported"], "span count != metadata"
trace_of = {e["args"]["span_id"]: e["args"]["trace_id"] for e in spans}
roots = 0
for e in spans:
    a = e["args"]
    assert e["dur"] >= 0 and a["dur_ns"] >= 0, "negative duration"
    parent = a["parent_span_id"]
    if parent == 0:
        roots += 1
    else:
        assert parent in trace_of, \
            f"span {a['span_id']} parent {parent} missing from file"
        assert trace_of[parent] == a["trace_id"], "parent crosses traces"
assert roots == meta["traces_sampled"], \
    f"{roots} roots for {meta['traces_sampled']} sampled traces"
# The export preserves per-lane ring order within the span and instant
# sections; sim time must never run backwards inside a lane.
for section in (spans, instants):
    last = {}
    for e in section:
        a = e["args"]
        assert a["sim_us"] >= last.get(a["lane"], 0), "sim time regressed"
        last[a["lane"]] = a["sim_us"]
stages = {e["name"] for e in spans}
for needed in ("submit", "verify", "queue_wait", "consensus",
               "ledger_append"):
    assert needed in stages, f"stage {needed} missing from traced run"
assert "batch_seal" in {e["name"] for e in instants}, "no batch_seal instant"
print(f"{len(spans)} spans, {roots} connected trees")
EOF
then
  echo "bench_smoke: OK causal trace export"
else
  echo "bench_smoke: FAIL causal trace export" >&2
  fail=1
fi
rm -f "$trace_file"

# Zero-overhead guard (src/obs/trace.h): the disabled-tracer span must stay
# branch-cheap. The ceiling is loose — a relaxed load + branch is ~1-3 ns,
# an accidental lock/allocation/ring write on the disabled path is 10-100x.
overhead_json="$(mktemp)"
if "$BENCH_DIR/bench_e2_consensus" \
      --benchmark_filter='BM_TraceDisabledOverhead' \
      --benchmark_out="$overhead_json" --benchmark_out_format=json \
      >/dev/null 2>&1 && "$PYTHON" - "$overhead_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cases = [b for b in doc.get("benchmarks", [])
         if b.get("run_type") != "aggregate"]
assert cases, "overhead case did not run"
ns = cases[0]["ns_per_span"]
assert ns < 250, f"disabled TraceSpan costs {ns:.1f} ns/span"
print(f"disabled span {ns:.2f} ns")
EOF
then
  echo "bench_smoke: OK disabled-tracing overhead"
else
  echo "bench_smoke: FAIL disabled-tracing overhead" >&2
  fail=1
fi
rm -f "$overhead_json"

# Ledger append cost must not grow with ledger size: an append is amortized
# O(1) (geometric vector growth, one HashNode per newly completed pair), so
# per-append time on a 2^16-entry ledger stays within 2x of a 2^10-entry
# one. Any O(ledger size) step per append, such as an exact-size reserve
# that defeats geometric growth, costs several times that at 2^16.
append_json="$(mktemp)"
if "$BENCH_DIR/bench_e6_ledger_integrity" \
      --benchmark_filter='BM_Append/' \
      --benchmark_out="$append_json" --benchmark_out_format=json \
      >/dev/null 2>&1 && "$PYTHON" - "$append_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
per_append = {}
for b in doc.get("benchmarks", []):
    if b.get("run_type") != "aggregate":
        per_append[int(b["name"].split("/")[1])] = b["cpu_time"]
small, large = per_append.get(1 << 10), per_append.get(1 << 16)
assert small and large, f"BM_Append sizes missing: {sorted(per_append)}"
ratio = large / small
print(f"append {small:.2f}us at 2^10, {large:.2f}us at 2^16 ({ratio:.2f}x)")
assert ratio <= 2.0, f"per-append time grows {ratio:.2f}x with ledger size"
EOF
then
  echo "bench_smoke: OK append cost flat in ledger size"
else
  echo "bench_smoke: FAIL append cost grows with ledger size" >&2
  fail=1
fi
rm -f "$append_json"

# PBFT append cost must not grow with history either: a default
# PbftOrdering checkpoints every 128 executions, and each checkpoint votes
# on a fixed-size certificate, so per-append time after 2^13 committed
# payloads stays within 2x of that after 2^10. A checkpoint that encodes the
# executed history or the whole ledger costs several times that at 2^13.
# Each size runs three repetitions; the fastest one counts.
pbft_json="$(mktemp)"
if "$BENCH_DIR/bench_e2_consensus" \
      --benchmark_filter='BM_PbftAppendAtHistory/' \
      --benchmark_out="$pbft_json" --benchmark_out_format=json \
      >/dev/null 2>&1 && "$PYTHON" - "$pbft_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
per_append = {}
for b in doc.get("benchmarks", []):
    if b.get("run_type") != "aggregate" and not b.get("error_occurred"):
        assert b["stable_checkpoint_seq"] > 0, f"{b['name']}: no checkpoint"
        size = int(b["name"].split("/")[1])
        per_append[size] = min(per_append.get(size, b["cpu_time"]),
                               b["cpu_time"])
small, large = per_append.get(1 << 10), per_append.get(1 << 13)
assert small and large, \
    f"BM_PbftAppendAtHistory sizes missing: {sorted(per_append)}"
ratio = large / small
print(f"pbft append {small:.1f}us at 2^10, {large:.1f}us at 2^13 "
      f"({ratio:.2f}x)")
assert ratio <= 2.0, f"per-append PBFT time grows {ratio:.2f}x with history"
EOF
then
  echo "bench_smoke: OK PBFT append cost flat in history"
else
  echo "bench_smoke: FAIL PBFT append cost grows with history" >&2
  fail=1
fi
rm -f "$pbft_json"

# SHA-256 dispatch: on a CPU whose /proc/cpuinfo lists sha_ni, Sha256 must
# actually run the SHA-NI compressor. Hashing 1 KiB through the dispatched
# compressor must take at most half the portable compressor's time (about a
# tenth in practice); a silent fall-back to the portable path fails here.
if grep -qw sha_ni /proc/cpuinfo 2>/dev/null; then
  sha_json="$(mktemp)"
  if "$BENCH_DIR/bench_e6_ledger_integrity" \
        --benchmark_filter='BM_Sha256/1024/' \
        --benchmark_out="$sha_json" --benchmark_out_format=json \
        >/dev/null 2>&1 && "$PYTHON" - "$sha_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
us = {}
for b in doc.get("benchmarks", []):
    if b.get("run_type") != "aggregate":
        us[int(b["name"].split("/")[2])] = b["cpu_time"]
portable, dispatched = us.get(0), us.get(1)
assert portable and dispatched, f"BM_Sha256/1024 cases missing: {sorted(us)}"
print(f"sha256 1 KiB: portable {portable:.2f}us, dispatched "
      f"{dispatched:.2f}us ({portable / dispatched:.1f}x)")
assert dispatched <= 0.5 * portable, \
    "dispatched SHA-256 is not the SHA-NI path on a sha_ni CPU"
EOF
  then
    echo "bench_smoke: OK SHA-256 dispatches to SHA-NI"
  else
    echo "bench_smoke: FAIL SHA-256 dispatch (SHA-NI not used)" >&2
    fail=1
  fi
  rm -f "$sha_json"
fi

# Batched range-proof verification: VerifyRange checks all bits of a proof
# with one multi-exponentiation, so at 18 bits it must cost at most 0.6x the
# per-bit oracle loop (VerifyBit per bit plus the same product check); about
# half in practice. A silent fall-back to the per-bit path fails here.
zk_json="$(mktemp)"
if "$BENCH_DIR/bench_e3_constraint_verification" \
      --benchmark_filter='BM_ZkRangeVerify(PerBit)?/18$' \
      --benchmark_min_time=0.2s \
      --benchmark_out="$zk_json" --benchmark_out_format=json \
      >/dev/null 2>&1 && "$PYTHON" - "$zk_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
us = {}
for b in doc.get("benchmarks", []):
    if b.get("run_type") != "aggregate" and not b.get("error_occurred"):
        us[b["name"].split("/")[0]] = b["cpu_time"]
batched, per_bit = us.get("BM_ZkRangeVerify"), us.get("BM_ZkRangeVerifyPerBit")
assert batched and per_bit, f"range-verify cases missing: {sorted(us)}"
ratio = batched / per_bit
print(f"range verify at 18 bits: batched {batched:.0f}us, per-bit "
      f"{per_bit:.0f}us ({ratio:.2f}x)")
assert ratio <= 0.6, f"batched VerifyRange costs {ratio:.2f}x the per-bit loop"
EOF
then
  echo "bench_smoke: OK batched range verification"
else
  echo "bench_smoke: FAIL batched range verification" >&2
  fail=1
fi
rm -f "$zk_json"

# Modular inverse: BigInt::InvMod runs a binary extended gcd on 64-bit limbs,
# so at 512 bits it must cost at most 0.2x the extended-Euclid oracle (about
# 0.07x in practice). A silent fall-back to BigInt Euclid fails here.
inv_json="$(mktemp)"
if "$BENCH_DIR/bench_e3_constraint_verification" \
      --benchmark_filter='BM_InvMod(Euclid)?/512$' \
      --benchmark_min_time=0.2s \
      --benchmark_out="$inv_json" --benchmark_out_format=json \
      >/dev/null 2>&1 && "$PYTHON" - "$inv_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
us = {}
for b in doc.get("benchmarks", []):
    if b.get("run_type") != "aggregate" and not b.get("error_occurred"):
        us[b["name"].split("/")[0]] = b["cpu_time"]
limb, euclid = us.get("BM_InvMod"), us.get("BM_InvModEuclid")
assert limb and euclid, f"inverse cases missing: {sorted(us)}"
ratio = limb / euclid
print(f"512-bit inverse: limb {limb:.1f}us, Euclid {euclid:.1f}us "
      f"({ratio:.2f}x)")
assert ratio <= 0.2, f"limb inverse costs {ratio:.2f}x the Euclid oracle"
EOF
then
  echo "bench_smoke: OK limb-level modular inverse"
else
  echo "bench_smoke: FAIL limb-level modular inverse" >&2
  fail=1
fi
rm -f "$inv_json"

# RSA-CRT signing: RsaBlindSign runs two half-width exponentiations, Garner
# recombination and the s^e fault check, so at 1024 bits it must cost at most
# 0.5x the full-exponent c^d mod n oracle (about 0.3x in practice, Release
# and ASan alike). A silent fall-back to the full exponent reads above 1x.
# The gate runs at 1024 bits, not the tokens' 512: there the 4-limb halves
# carry so much per-call overhead under ASan+UBSan that the ratio reads
# 0.50-0.52 (0.37 in Release).
crt_json="$(mktemp)"
if "$BENCH_DIR/bench_e3_constraint_verification" \
      --benchmark_filter='BM_RsaBlindSign(NoCrt)?/1024$' \
      --benchmark_min_time=0.2s \
      --benchmark_out="$crt_json" --benchmark_out_format=json \
      >/dev/null 2>&1 && "$PYTHON" - "$crt_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
us = {}
for b in doc.get("benchmarks", []):
    if b.get("run_type") != "aggregate" and not b.get("error_occurred"):
        us[b["name"].split("/")[0]] = b["cpu_time"]
crt, full = us.get("BM_RsaBlindSign"), us.get("BM_RsaBlindSignNoCrt")
assert crt and full, f"RSA signing cases missing: {sorted(us)}"
ratio = crt / full
print(f"1024-bit blind signature: CRT {crt:.1f}us, full exponent "
      f"{full:.1f}us ({ratio:.2f}x)")
assert ratio <= 0.5, f"CRT signing costs {ratio:.2f}x the full exponent"
EOF
then
  echo "bench_smoke: OK RSA-CRT signing"
else
  echo "bench_smoke: FAIL RSA-CRT signing" >&2
  fail=1
fi
rm -f "$crt_json"

# Compiled-verification path: a short verify-and-commit run must actually
# compile its catalog (compiled > 0; the bytecode is the verifier's only
# evaluator) and the aggregate cache must ride its O(1) delta path —
# exactly one full rebuild no matter how many iterations committed, every
# subsequent verify a cache hit, and no evaluation on the row-scan path.
verify_json="$(mktemp)"
if "$BENCH_DIR/bench_e3_constraint_verification" \
      --benchmark_filter='BM_CompiledVerifyCommit/100$' \
      --benchmark_min_time=0.01s \
      --benchmark_out="$verify_json" --benchmark_out_format=json \
      >/dev/null 2>&1 && "$PYTHON" - "$verify_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cases = [b for b in doc.get("benchmarks", [])
         if b.get("run_type") != "aggregate"]
assert cases, "compiled verify case did not run"
b = cases[0]
for key in ("verifies/s", "agg_cache_hits", "agg_rebuilds",
            "agg_delta_applies", "agg_scan_evals", "compiled"):
    assert key in b, f"missing counter {key}"
assert b["compiled"] > 0, "constraint fell back to the interpreter"
assert b["agg_scan_evals"] == 0, \
    f"{b['agg_scan_evals']:.0f} scan evaluations: cacheable shape scanned"
assert b["agg_rebuilds"] <= 2, \
    f"{b['agg_rebuilds']:.0f} rebuilds: cache is rescanning, not delta-ing"
assert b["agg_delta_applies"] >= b["iterations"] - 2, \
    "committed inserts not flowing through the delta path"
assert b["agg_cache_hits"] >= b["iterations"] - 2, "verifies missing cache"
print(f"compiled={b['compiled']:.0f} rebuilds={b['agg_rebuilds']:.0f} "
      f"deltas={b['agg_delta_applies']:.0f} over {b['iterations']} commits")
EOF
then
  echo "bench_smoke: OK compiled verification path"
else
  echo "bench_smoke: FAIL compiled verification path" >&2
  fail=1
fi
rm -f "$verify_json"

# E1 plaintext verifier counters: BM_Plaintext must export the compiled
# verifier's cache counters, so its verify cost can be read as rebuilds vs
# deltas vs scans from exported data alone.
e1_json="$(mktemp)"
if "$BENCH_DIR/bench_e1_ycsb_private_vs_plain" \
      --benchmark_filter='BM_Plaintext$' \
      --benchmark_min_time=0.01s \
      --benchmark_out="$e1_json" --benchmark_out_format=json \
      >/dev/null 2>&1 && "$PYTHON" - "$e1_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cases = [b for b in doc.get("benchmarks", [])
         if b.get("run_type") != "aggregate"]
assert cases, "plaintext case did not run"
b = cases[0]
keys = ("agg_rebuilds", "agg_delta_applies", "agg_invalidations",
        "agg_scan_evals", "fast_path_verifies")
for key in keys:
    assert key in b, f"missing counter {key}"
assert b["agg_rebuilds"] > 0, "verifier never built its aggregate cache"
print(" ".join(f"{k}={b[k]:.0f}" for k in keys) +
      f" over {b['iterations']} updates")
EOF
then
  echo "bench_smoke: OK plaintext verifier counters"
else
  echo "bench_smoke: FAIL plaintext verifier counters" >&2
  fail=1
fi
rm -f "$e1_json"

exit "$fail"
