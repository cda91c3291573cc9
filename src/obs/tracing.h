#ifndef PREVER_OBS_TRACING_H_
#define PREVER_OBS_TRACING_H_

// Causal tracing: per-transaction span trees over the full PReVer pipeline
// (engine submit -> group-commit batching -> consensus -> ledger/WAL
// durability -> per-phase verification), recorded into a lock-free
// per-thread ring-buffer flight recorder and exportable as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Design (see DESIGN.md "Causal tracing"):
//  - A TraceContext (trace_id / span_id / parent_span_id) is minted at the
//    root of a transaction (engine SubmitUpdate, or pipeline Enqueue for raw
//    ordering payloads) and propagated through a thread-local current-context
//    slot. net::Message carries the context across simulated hops, so spans
//    opened on one replica parent spans recorded while another replica's
//    handler runs.
//  - Events are fixed-size binary records with DUAL timestamps: wall-clock
//    monotonic nanoseconds and (when a SimClock is installed for the thread)
//    simulated-time microseconds.
//  - Sampling is deterministic: trace ids are a process-wide counter and the
//    keep/drop decision is a seeded hash of the id, so a fixed (seed, period)
//    pair samples the same transactions on every run.
//  - Cost model: runtime-disabled (the default), every entry point is one
//    relaxed atomic load and a branch. See trace.h for the zero-overhead
//    contract.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "obs/json.h"

namespace prever::obs {

/// Propagated causal identity of one span. trace_id == 0 means "not part of
/// a sampled trace": all recording against such a context is skipped, which
/// is also how the sampling decision propagates (unsampled roots mint a
/// null context and the whole downstream pipeline stays silent).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;

  bool sampled() const { return trace_id != 0; }
};

/// Span/instant taxonomy. Stages mirror the EngineMetrics phase histograms
/// (submit/verify/crypto/token/ledger) plus the ordering pipeline and
/// consensus hops the histograms cannot attribute per-transaction.
enum class TraceStage : uint8_t {
  kNone = 0,
  // Engine phases (span kind; taxonomy shared with EngineMetrics).
  kSubmit = 1,        ///< Whole SubmitUpdate (transaction root).
  kVerify = 2,        ///< Constraint / proof verification.
  kCrypto = 3,        ///< Commitment / encryption work.
  kToken = 4,         ///< Token acquisition & checks.
  kLedgerPhase = 5,   ///< Engine-side ledger phase (ordering call).
  // Ordering pipeline (span kind).
  kQueueWait = 6,     ///< Enqueue -> batch seal (open-batch residency).
  kConsensus = 7,     ///< Envelope submit -> quorum commit.
  kLedgerAppend = 8,  ///< Replica-0 ledger append of a committed batch.
  kWalAppend = 9,     ///< Write-ahead-log append + flush.
  // Instants.
  kBatchSeal = 10,       ///< Batch sealed; arg = payload count.
  kBatchJoin = 11,       ///< Payload joined a batch; arg = batch span id.
  kNetSend = 12,         ///< Message enqueued; arg = protocol msg type.
  kNetDeliver = 13,      ///< Message delivered; arg = protocol msg type.
  kRaftAppendEntries = 14,  ///< Follower processed AppendEntries; arg = n.
  kPbftPrePrepare = 15,     ///< Replica processed pre-prepare; arg = seq.
  kPbftPrepare = 16,        ///< Replica processed prepare; arg = seq.
  kPbftCommit = 17,         ///< Replica processed commit; arg = seq.
  // Verification sub-phases (span kind; children of kVerify).
  kVerifyCompile = 18,      ///< Constraint → bytecode compilation.
  kVerifyEval = 19,         ///< Compiled/interpreted constraint evaluation.
  kVerifyAggUpdate = 20,    ///< Incremental aggregate-cache delta on commit.
  // Crash recovery (span kind; see src/recovery/ and DESIGN.md).
  kRecoverLoad = 21,        ///< Checkpoint locate + CRC validate + decode.
  kRecoverReplay = 22,      ///< WAL/journal suffix replay past the checkpoint.
  kStateTransfer = 23,      ///< Peer checkpoint fetch/install; arg = bytes.
};

const char* TraceStageName(TraceStage stage);

enum class TraceEventKind : uint8_t { kBegin = 1, kEnd = 2, kInstant = 3 };

/// One decoded flight-recorder record (the in-ring representation packs the
/// same fields into atomic words; see tracing.cc).
struct TraceEvent {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint64_t wall_ns = 0;  ///< MonotonicNanos() at record time.
  uint64_t sim_us = 0;   ///< Thread SimClock at record time (0 if none).
  uint64_t arg = 0;      ///< Stage-specific payload (batch id, msg type...).
  uint32_t lane = 0;     ///< Flight-recorder lane (one per writer thread).
  TraceEventKind kind = TraceEventKind::kInstant;
  TraceStage stage = TraceStage::kNone;
};

struct TracerConfig {
  bool enabled = false;        ///< Master switch (runtime; default off).
  uint64_t sample_period = 1;  ///< Keep 1 in N minted traces (1 = all).
  uint64_t sample_seed = 0;    ///< Seed of the deterministic keep/drop hash.
  size_t ring_capacity = 4096; ///< Events per writer-thread ring (pow2-ceil).
  /// Forensics mode for the sim harness: when a message is sent with no
  /// sampled context current (pure consensus scenarios have no engine
  /// submit roots), SimNetwork mints a per-message root so net/consensus
  /// hop instants still reach the flight recorder. Off by default —
  /// benches and production paths keep strict transaction-rooted traces.
  bool trace_unrooted_messages = false;
};

/// Process-wide trace collector. All mutating entry points are safe to call
/// from any thread: records go to a per-thread single-writer ring buffer
/// (every slot field is a relaxed atomic; the ring head is published with
/// release order), so concurrent Snapshot() readers are race-free — at worst
/// they observe a torn record that a wrap-around is overwriting, which a
/// best-effort flight recorder tolerates by design.
class Tracer {
 public:
  struct Ring;  // Per-thread flight-recorder ring (defined in tracing.cc).

  static Tracer& Get();

  /// Applies `config` and clears all rings + counters. Not safe concurrently
  /// with recording (call from a quiesced point: test setup, bench main).
  void Configure(const TracerConfig& config);
  void SetEnabled(bool enabled);
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  bool trace_unrooted_messages() const {
    return enabled() &&
           trace_unrooted_messages_.load(std::memory_order_relaxed);
  }
  const TracerConfig& config() const { return config_; }

  /// Mints a new root context; returns a null context when disabled or when
  /// the deterministic sampler drops the trace.
  TraceContext MintTrace();

  /// Thread-local current context (null when no span is open on this
  /// thread). ScopedTraceContext / TraceSpan maintain it.
  static const TraceContext& CurrentContext();

  /// Opens a span: child of `parent` when sampled, otherwise a freshly
  /// minted root. Records the kBegin event; returns the span's context
  /// (null when nothing was recorded). Does NOT touch the thread-local
  /// current context — that is TraceSpan's job.
  TraceContext BeginSpan(TraceStage stage, const TraceContext& parent,
                         uint64_t arg = 0);
  /// Convenience: child of the thread-current context (or a new root).
  TraceContext BeginSpan(TraceStage stage, uint64_t arg = 0);
  /// Child-only variant: null (silent) when `parent` is unsampled, so an
  /// unsampled transaction stays unsampled end to end.
  TraceContext BeginChild(TraceStage stage, const TraceContext& parent,
                          uint64_t arg = 0);
  void EndSpan(const TraceContext& ctx, TraceStage stage, uint64_t arg = 0);
  void Instant(const TraceContext& ctx, TraceStage stage, uint64_t arg = 0);

  /// Installs the simulated clock used for this thread's sim timestamps
  /// (nullptr to clear). SimNetwork installs itself while stepping.
  static void SetThreadSimClock(const SimClock* clock);
  /// Clears this thread's sim clock if it is `clock` (whose owner is being
  /// destroyed), so no later record reads a dangling clock.
  static void ForgetThreadSimClock(const SimClock* clock);

  /// Counters (process lifetime since last Configure).
  uint64_t traces_minted() const;
  uint64_t traces_sampled() const;
  uint64_t events_recorded() const;

  /// All recorded events, per-lane ring order concatenated lane by lane
  /// (within a lane, oldest first). Safe concurrently with writers.
  std::vector<TraceEvent> Snapshot() const;
  /// The `n` most recent events across all lanes (by wall clock).
  std::vector<TraceEvent> Tail(size_t n) const;
  /// Human-readable tail for failure reports, one "    stage ..." line per
  /// event (indent matches sim-report formatting); empty when no events.
  std::string TailString(size_t n) const;

  /// Chrome trace-event document: matched begin/end pairs become "X"
  /// complete events, instants become "i"; a "prever" metadata object
  /// carries schema + drop counters. Loadable in Perfetto as-is.
  Json ChromeTraceDoc() const;
  /// Writes ChromeTraceDoc() to `path`.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  Tracer() = default;

  Ring* ThreadRing();
  void Record(TraceEventKind kind, TraceStage stage, const TraceContext& ctx,
              uint64_t arg);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> trace_unrooted_messages_{false};
  TracerConfig config_{};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> traces_minted_{0};
  std::atomic<uint64_t> traces_sampled_{0};
};

/// Installs `ctx` as the thread-current context for the scope (restores the
/// previous one on exit). Used to adopt a propagated context — e.g. around
/// message delivery or a consensus submit — without opening a span.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// RAII span: opens a child of the thread-current context (or a new root
/// when `root` is true or nothing is current), installs itself as current,
/// and closes + restores on destruction. When the tracer is disabled or the
/// trace is unsampled this is one relaxed load + branch.
class TraceSpan {
 public:
  explicit TraceSpan(TraceStage stage, uint64_t arg = 0, bool root = false);
  ~TraceSpan() { End(); }
  void End();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceContext ctx_;
  TraceContext saved_;
  TraceStage stage_ = TraceStage::kNone;
  bool open_ = false;
};

}  // namespace prever::obs

/// Causal-span macros (one relaxed load + branch when runtime-disabled —
/// see trace.h for the documented zero-overhead contract shared with the
/// histogram spans).
#define PREVER_CAUSAL_SPAN(name, stage) \
  ::prever::obs::TraceSpan name(stage)
#define PREVER_CAUSAL_INSTANT(stage, arg)        \
  ::prever::obs::Tracer::Get().Instant(          \
      ::prever::obs::Tracer::CurrentContext(), stage, arg)

#endif  // PREVER_OBS_TRACING_H_
