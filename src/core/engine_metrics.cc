#include "core/engine_metrics.h"

namespace prever::core {

namespace {

/// The one stage -> label table. Phase histograms and rejection counters
/// share these labels; entry 0 is the stage a submit is in before it opens
/// any phase (malformed input, wrong platform).
struct StageLabel {
  obs::TraceStage stage;
  const char* label;
};
constexpr StageLabel kStages[EngineMetrics::kNumStages] = {
    {obs::TraceStage::kNone, "input"},
    {obs::TraceStage::kVerify, "verify"},
    {obs::TraceStage::kCrypto, "crypto"},
    {obs::TraceStage::kToken, "token"},
    {obs::TraceStage::kLedgerPhase, "ledger"},
};

}  // namespace

EngineMetrics::EngineMetrics(const std::string& engine,
                             obs::Registry* registry) {
  const obs::Labels base{{"engine", engine}};
  auto with = [&](const char* key, const char* value) {
    obs::Labels l = base;
    l[key] = value;
    return l;
  };
  auto outcome = [&](const char* o) {
    return registry->GetCounter("prever_engine_updates_total",
                                with("outcome", o));
  };
  submitted_ = outcome("submitted");
  accepted_ = outcome("accepted");
  rejected_constraint_ = outcome("rejected_constraint");
  rejected_error_ = outcome("rejected_error");
  submit_ns_ = registry->GetHistogram("prever_engine_submit_ns", base);
  for (size_t i = 0; i < kNumStages; ++i) {
    if (i > 0) {
      phase_ns_[i] = registry->GetHistogram("prever_engine_phase_ns",
                                            with("phase", kStages[i].label));
    }
    rejections_[i] = registry->GetCounter("prever_engine_rejections_total",
                                          with("stage", kStages[i].label));
  }
  baseline_ = Snapshot();  // baseline_ is still zero: the absolute values.
}

EngineMetrics::PhaseSpan EngineMetrics::Phase(obs::TraceStage stage) {
  size_t i = 1;
  while (i < kNumStages && kStages[i].stage != stage) ++i;
  if (i == kNumStages) i = 0;  // Not a phase: traced, never timed.
  stage_ = i;
  return PhaseSpan(phase_ns_[i], stage);
}

void EngineMetrics::Classify(const Status& status) {
  if (status.ok()) {
    accepted_->Inc();
    return;
  }
  if (status.code() == StatusCode::kConstraintViolation) {
    rejected_constraint_->Inc();
  } else {
    rejected_error_->Inc();
  }
  rejections_[stage_]->Inc();
}

EngineStats EngineMetrics::Snapshot() const {
  EngineStats s;
  s.submitted = submitted_->value() - baseline_.submitted;
  s.accepted = accepted_->value() - baseline_.accepted;
  s.rejected_constraint =
      rejected_constraint_->value() - baseline_.rejected_constraint;
  s.rejected_error = rejected_error_->value() - baseline_.rejected_error;
  return s;
}

}  // namespace prever::core
