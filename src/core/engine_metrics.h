#ifndef PREVER_CORE_ENGINE_METRICS_H_
#define PREVER_CORE_ENGINE_METRICS_H_

#include <array>
#include <cstddef>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/update.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/tracing.h"

namespace prever::core {

/// The one instrumentation point of every UpdateEngine: the Fig. 2 submit
/// skeleton (count, time, trace root, classify) is written here once, and
/// engines only supply the body. Each engine owns one instance; the
/// counters/histograms live in a Registry keyed by `engine=<name>`, so two
/// instances of the same engine share metric families. stats() semantics
/// stay per-instance: counters are read as deltas against a baseline
/// captured at construction.
///
///   return metrics_.Submit([&]() -> Status {
///     auto verify = metrics_.Phase(obs::TraceStage::kVerify);
///     PREVER_RETURN_IF_ERROR(verifier_.VerifyAll(ctx));
///     verify.End();
///     ...
///   });
class EngineMetrics {
 public:
  /// `engine` labels every metric family; pass the engine's name(). Metrics
  /// register in `registry` (Default() for production engines).
  explicit EngineMetrics(const std::string& engine,
                         obs::Registry* registry = &obs::Registry::Default());

  /// RAII engine phase: times into `prever_engine_phase_ns{phase}` and
  /// opens the matching causal span (a child of the submit root; silent
  /// outside one). End() or scope exit closes both together.
  class [[nodiscard]] PhaseSpan {
   public:
    void End() {
      causal_.End();
      timer_.End();
    }

   private:
    friend class EngineMetrics;
    PhaseSpan(obs::Histogram* hist, obs::TraceStage stage)
        : timer_(hist), causal_(stage) {}
    // Member destruction order matches End(): causal span, then timer.
    obs::ScopedSpan timer_;
    obs::TraceSpan causal_;
  };

  /// Opens phase `stage` (kVerify, kCrypto, kToken or kLedgerPhase) and
  /// makes it the stage a later rejection of this submit is charged to.
  PhaseSpan Phase(obs::TraceStage stage);

  /// The submit scope: counts `submitted`, times the whole of `body` into
  /// `prever_engine_submit_ns`, runs it under a `kSubmit` causal root
  /// (`trace_arg` rides on the root's begin event), and classifies the
  /// Status it returns into accepted / rejected_constraint / rejected_error
  /// plus `prever_engine_rejections_total{stage}`. Returns that Status.
  template <typename Body>
  Status Submit(Body&& body, uint64_t trace_arg = 0) {
    submitted_->Inc();
    stage_ = 0;
    obs::ScopedSpan timer(submit_ns_);
    Status status;
    {
      obs::TraceSpan root(obs::TraceStage::kSubmit, trace_arg, /*root=*/true);
      status = std::forward<Body>(body)();
    }
    Classify(status);
    return status;
  }

  /// Per-instance outcome totals (counter values minus construction-time
  /// baseline), preserving the pre-registry EngineStats contract.
  EngineStats Snapshot() const;

  /// Rejection stages: "input" plus one per phase (see engine_metrics.cc).
  static constexpr size_t kNumStages = 5;

 private:
  void Classify(const Status& status);

  obs::Counter* submitted_;
  obs::Counter* accepted_;
  obs::Counter* rejected_constraint_;
  obs::Counter* rejected_error_;
  obs::Histogram* submit_ns_;
  /// Indexed like the stage table; entry 0 ("input") has no histogram.
  std::array<obs::Histogram*, kNumStages> phase_ns_{};
  std::array<obs::Counter*, kNumStages> rejections_{};
  size_t stage_ = 0;      ///< Most recently opened phase of this submit.
  EngineStats baseline_;  ///< Counter values when this instance was created.
};

}  // namespace prever::core

#endif  // PREVER_CORE_ENGINE_METRICS_H_
