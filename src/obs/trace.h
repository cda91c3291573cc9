#ifndef PREVER_OBS_TRACE_H_
#define PREVER_OBS_TRACE_H_

// Zero-overhead contract for PReVer instrumentation (this header's
// histogram spans AND the causal spans in obs/tracing.h):
//
//  1. Runtime-disabled (the default): every instrumentation point costs
//     exactly one relaxed atomic load and one predictable branch before
//     bailing out. No allocation, no ring write, no thread-local context
//     mutation happens while Tracer::enabled() is false.
//  2. Enabled but unsampled: minting a root costs two relaxed RMWs (trace
//     id + minted counter) plus one hash; a dropped trace propagates a
//     null context, so every downstream span/instant on that transaction
//     falls back to the mode-1 cost.
//
// The contract is enforced by TEST(ObsTracingOverhead, ...) in
// tests/tracing_test.cc and the BM_TraceDisabledOverhead case in
// bench/bench_e2_consensus.cpp (asserted loosely by scripts/bench_smoke.sh
// so a regression to per-op allocation or locking cannot land silently).
//
// The histogram spans below follow the same discipline: a null histogram
// pointer disarms a ScopedSpan at construction time with no clock read.

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace prever::obs {

/// Wall-clock monotonic nanoseconds (steady_clock, immune to NTP steps).
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII span: records elapsed wall-clock nanoseconds into `hist` at scope
/// exit. A null histogram disables the span (zero-cost guard for optional
/// instrumentation).
class ScopedSpan {
 public:
  explicit ScopedSpan(Histogram* hist)
      : hist_(hist), start_(hist != nullptr ? MonotonicNanos() : 0) {}
  ~ScopedSpan() { End(); }

  /// Records and disarms early, for spans that end before scope exit.
  void End() {
    if (hist_ != nullptr) {
      hist_->Record(MonotonicNanos() - start_);
      hist_ = nullptr;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_;
};

}  // namespace prever::obs

#define PREVER_TRACE_CONCAT_IMPL_(a, b) a##b
#define PREVER_TRACE_CONCAT_(a, b) PREVER_TRACE_CONCAT_IMPL_(a, b)

/// Times the rest of the enclosing scope into `hist_ptr` (wall clock, ns).
#define PREVER_TRACE_SPAN(hist_ptr) \
  ::prever::obs::ScopedSpan PREVER_TRACE_CONCAT_(_span_, __LINE__)(hist_ptr)

#endif  // PREVER_OBS_TRACE_H_
