#include "obs/tracing.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "obs/trace.h"

// Ring generations dropped by Tracer::Configure are leaked by design (a
// racing writer may still hold a pointer); tell LeakSanitizer so real leaks
// stay visible instead of drowning in per-scenario reconfigure noise.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(leak_sanitizer)
#define PREVER_LSAN_AVAILABLE 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define PREVER_LSAN_AVAILABLE 1
#endif
#if defined(PREVER_LSAN_AVAILABLE)
#include <sanitizer/lsan_interface.h>
#define PREVER_LSAN_IGNORE(ptr) __lsan_ignore_object(ptr)
#else
#define PREVER_LSAN_IGNORE(ptr) (void)(ptr)
#endif

namespace prever::obs {

namespace {

thread_local TraceContext t_current_context;
thread_local const SimClock* t_sim_clock = nullptr;

/// SplitMix64 finalizer: the deterministic sampling hash. Seeded, so a
/// fixed (seed, period) pair keeps the same trace ids on every run.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t CeilPow2(size_t n) {
  size_t p = 1;
  while (p < n && p < (size_t{1} << 30)) p <<= 1;
  return p;
}

}  // namespace

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kNone: return "none";
    case TraceStage::kSubmit: return "submit";
    case TraceStage::kVerify: return "verify";
    case TraceStage::kCrypto: return "crypto";
    case TraceStage::kToken: return "token";
    case TraceStage::kLedgerPhase: return "ledger_phase";
    case TraceStage::kQueueWait: return "queue_wait";
    case TraceStage::kConsensus: return "consensus";
    case TraceStage::kLedgerAppend: return "ledger_append";
    case TraceStage::kWalAppend: return "wal_append";
    case TraceStage::kBatchSeal: return "batch_seal";
    case TraceStage::kBatchJoin: return "batch_join";
    case TraceStage::kNetSend: return "net_send";
    case TraceStage::kNetDeliver: return "net_deliver";
    case TraceStage::kRaftAppendEntries: return "raft_append_entries";
    case TraceStage::kPbftPrePrepare: return "pbft_pre_prepare";
    case TraceStage::kPbftPrepare: return "pbft_prepare";
    case TraceStage::kPbftCommit: return "pbft_commit";
    case TraceStage::kVerifyCompile: return "verify_compile";
    case TraceStage::kVerifyEval: return "verify_eval";
    case TraceStage::kVerifyAggUpdate: return "verify_agg_update";
    case TraceStage::kRecoverLoad: return "recover_load";
    case TraceStage::kRecoverReplay: return "recover_replay";
    case TraceStage::kStateTransfer: return "state_transfer";
  }
  return "unknown";
}

/// Single-writer ring of fixed-size records. Every slot word is a relaxed
/// atomic (clean under TSan even with concurrent snapshots); `head` counts
/// records ever written and is published with release order so a reader
/// that acquires it sees the slots the count covers — modulo wrap-around
/// overwrites, which a flight recorder accepts.
struct Tracer::Ring {
  struct Slot {
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_span_id{0};
    std::atomic<uint64_t> wall_ns{0};
    std::atomic<uint64_t> sim_us{0};
    std::atomic<uint64_t> arg{0};
    std::atomic<uint64_t> packed{0};  // kind<<40 | stage<<32 | lane
  };

  explicit Ring(uint32_t lane_id, size_t capacity)
      : lane(lane_id), mask(capacity - 1), slots(capacity) {}

  void Push(TraceEventKind kind, TraceStage stage, const TraceContext& ctx,
            uint64_t arg, uint64_t wall_ns, uint64_t sim_us) {
    uint64_t h = head.load(std::memory_order_relaxed);
    Slot& s = slots[h & mask];
    s.trace_id.store(ctx.trace_id, std::memory_order_relaxed);
    s.span_id.store(ctx.span_id, std::memory_order_relaxed);
    s.parent_span_id.store(ctx.parent_span_id, std::memory_order_relaxed);
    s.wall_ns.store(wall_ns, std::memory_order_relaxed);
    s.sim_us.store(sim_us, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.packed.store((uint64_t{static_cast<uint8_t>(kind)} << 40) |
                       (uint64_t{static_cast<uint8_t>(stage)} << 32) | lane,
                   std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }

  /// Oldest-first decode of the currently retained window.
  void Drain(std::vector<TraceEvent>* out) const {
    uint64_t h = head.load(std::memory_order_acquire);
    uint64_t n = std::min<uint64_t>(h, slots.size());
    for (uint64_t i = h - n; i < h; ++i) {
      const Slot& s = slots[i & mask];
      TraceEvent e;
      e.trace_id = s.trace_id.load(std::memory_order_relaxed);
      e.span_id = s.span_id.load(std::memory_order_relaxed);
      e.parent_span_id = s.parent_span_id.load(std::memory_order_relaxed);
      e.wall_ns = s.wall_ns.load(std::memory_order_relaxed);
      e.sim_us = s.sim_us.load(std::memory_order_relaxed);
      e.arg = s.arg.load(std::memory_order_relaxed);
      uint64_t packed = s.packed.load(std::memory_order_relaxed);
      e.lane = static_cast<uint32_t>(packed & 0xffffffffu);
      e.stage = static_cast<TraceStage>((packed >> 32) & 0xff);
      e.kind = static_cast<TraceEventKind>((packed >> 40) & 0xff);
      out->push_back(e);
    }
  }

  const uint32_t lane;
  const uint64_t mask;
  std::atomic<uint64_t> head{0};
  std::vector<Slot> slots;
};

namespace {

/// Ring registry: rings are allocated once per writer thread and never
/// freed (lanes are few and bounded by thread count; leaking them keeps
/// Snapshot() safe against thread exit). Guarded by a mutex that only the
/// slow paths (first record on a thread, snapshot, reconfigure) take.
struct RingRegistry {
  std::mutex mu;
  std::vector<Tracer::Ring*> rings;
  uint32_t next_lane = 0;
  // Bumped by Configure to invalidate thread-local ring caches; atomic so
  // the lock-free fast path in ThreadRing can read it.
  std::atomic<uint64_t> generation{0};
  size_t capacity = 4096;
};

RingRegistry& Registry() {
  static RingRegistry* r = new RingRegistry();
  return *r;
}

thread_local Tracer::Ring* t_ring = nullptr;
thread_local uint64_t t_ring_generation = ~uint64_t{0};

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* t = new Tracer();
  return *t;
}

void Tracer::Configure(const TracerConfig& config) {
  RingRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  config_ = config;
  if (config_.sample_period == 0) config_.sample_period = 1;
  config_.ring_capacity = CeilPow2(std::max<size_t>(config_.ring_capacity, 8));
  // Drop the old rings from the registry (the thread-local pointers are
  // invalidated via the generation counter; the Ring objects themselves are
  // leaked intentionally — a racing writer may still hold one).
  reg.rings.clear();
  reg.next_lane = 0;
  reg.capacity = config_.ring_capacity;
  reg.generation.fetch_add(1, std::memory_order_release);
  next_trace_id_.store(1, std::memory_order_relaxed);
  next_span_id_.store(1, std::memory_order_relaxed);
  traces_minted_.store(0, std::memory_order_relaxed);
  traces_sampled_.store(0, std::memory_order_relaxed);
  trace_unrooted_messages_.store(config_.trace_unrooted_messages,
                                 std::memory_order_relaxed);
  enabled_.store(config_.enabled, std::memory_order_relaxed);
}

void Tracer::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

Tracer::Ring* Tracer::ThreadRing() {
  RingRegistry& reg = Registry();
  // Fast path: cached ring from the current generation.
  uint64_t gen = reg.generation.load(std::memory_order_acquire);
  if (t_ring != nullptr && t_ring_generation == gen) return t_ring;
  std::lock_guard<std::mutex> lock(reg.mu);
  auto* ring = new Ring(reg.next_lane++, reg.capacity);
  PREVER_LSAN_IGNORE(ring);
  PREVER_LSAN_IGNORE(ring->slots.data());
  reg.rings.push_back(ring);
  t_ring = ring;
  t_ring_generation = reg.generation.load(std::memory_order_relaxed);
  return ring;
}

TraceContext Tracer::MintTrace() {
  if (!enabled()) return {};
  traces_minted_.fetch_add(1, std::memory_order_relaxed);
  uint64_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  if (config_.sample_period > 1 &&
      Mix64(id ^ config_.sample_seed) % config_.sample_period != 0) {
    return {};
  }
  traces_sampled_.fetch_add(1, std::memory_order_relaxed);
  TraceContext ctx;
  ctx.trace_id = id;
  return ctx;
}

const TraceContext& Tracer::CurrentContext() { return t_current_context; }

void Tracer::SetThreadSimClock(const SimClock* clock) { t_sim_clock = clock; }

void Tracer::ForgetThreadSimClock(const SimClock* clock) {
  if (t_sim_clock == clock) t_sim_clock = nullptr;
}

void Tracer::Record(TraceEventKind kind, TraceStage stage,
                    const TraceContext& ctx, uint64_t arg) {
  uint64_t sim_us = t_sim_clock != nullptr ? t_sim_clock->Now() : 0;
  ThreadRing()->Push(kind, stage, ctx, arg, MonotonicNanos(), sim_us);
}

TraceContext Tracer::BeginChild(TraceStage stage, const TraceContext& parent,
                                uint64_t arg) {
  if (!enabled() || !parent.sampled()) return {};
  TraceContext ctx;
  ctx.trace_id = parent.trace_id;
  ctx.parent_span_id = parent.span_id;
  ctx.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  Record(TraceEventKind::kBegin, stage, ctx, arg);
  return ctx;
}

TraceContext Tracer::BeginSpan(TraceStage stage, const TraceContext& parent,
                               uint64_t arg) {
  if (!enabled()) return {};
  if (parent.sampled()) return BeginChild(stage, parent, arg);
  TraceContext minted = MintTrace();
  if (!minted.sampled()) return {};
  TraceContext ctx;
  ctx.trace_id = minted.trace_id;
  ctx.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  Record(TraceEventKind::kBegin, stage, ctx, arg);
  return ctx;
}

TraceContext Tracer::BeginSpan(TraceStage stage, uint64_t arg) {
  return BeginSpan(stage, t_current_context, arg);
}

void Tracer::EndSpan(const TraceContext& ctx, TraceStage stage, uint64_t arg) {
  if (!enabled() || !ctx.sampled()) return;
  Record(TraceEventKind::kEnd, stage, ctx, arg);
}

void Tracer::Instant(const TraceContext& ctx, TraceStage stage, uint64_t arg) {
  if (!enabled() || !ctx.sampled()) return;
  Record(TraceEventKind::kInstant, stage, ctx, arg);
}

uint64_t Tracer::traces_minted() const {
  return traces_minted_.load(std::memory_order_relaxed);
}
uint64_t Tracer::traces_sampled() const {
  return traces_sampled_.load(std::memory_order_relaxed);
}
uint64_t Tracer::events_recorded() const {
  RingRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  uint64_t total = 0;
  for (const Ring* ring : reg.rings) {
    total += ring->head.load(std::memory_order_acquire);
  }
  return total;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  RingRegistry& reg = Registry();
  std::vector<Ring*> rings;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    rings = reg.rings;
  }
  std::vector<TraceEvent> events;
  for (const Ring* ring : rings) ring->Drain(&events);
  return events;
}

std::vector<TraceEvent> Tracer::Tail(size_t n) const {
  std::vector<TraceEvent> events = Snapshot();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.wall_ns < b.wall_ns;
            });
  if (events.size() > n) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(n));
  }
  return events;
}

std::string Tracer::TailString(size_t n) const {
  std::string out;
  for (const TraceEvent& e : Tail(n)) {
    const char* kind = e.kind == TraceEventKind::kBegin  ? "B"
                       : e.kind == TraceEventKind::kEnd  ? "E"
                                                         : "I";
    out += "    " + std::string(kind) + " " + TraceStageName(e.stage) +
           " trace=" + std::to_string(e.trace_id) +
           " span=" + std::to_string(e.span_id) +
           " parent=" + std::to_string(e.parent_span_id) +
           " sim_us=" + std::to_string(e.sim_us) +
           " lane=" + std::to_string(e.lane) +
           " arg=" + std::to_string(e.arg) + "\n";
  }
  return out;
}

Json Tracer::ChromeTraceDoc() const {
  std::vector<TraceEvent> events = Snapshot();
  // Pair begins with ends by span id (two passes: a span's end can land in
  // a lane drained before its begin's lane). A span whose begin was
  // overwritten by ring wrap-around, or that never ended, is dropped and
  // counted — keeping the export's "every X event is a matched pair"
  // guarantee.
  struct Open {
    TraceEvent begin;
    bool matched = false;
    TraceEvent end;
  };
  std::vector<Open> spans;  // Ordered by begin-record sight.
  std::unordered_map<uint64_t, size_t> span_index;
  std::vector<const TraceEvent*> instants;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kBegin) {
      span_index.emplace(e.span_id, spans.size());
      spans.push_back(Open{e, false, {}});
    } else if (e.kind == TraceEventKind::kInstant) {
      instants.push_back(&e);
    }
  }
  size_t orphan_ends = 0;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kEnd) continue;
    auto it = span_index.find(e.span_id);
    if (it == span_index.end() || spans[it->second].matched) {
      ++orphan_ends;
    } else {
      spans[it->second].matched = true;
      spans[it->second].end = e;
    }
  }

  Json trace_events = Json::Array();
  size_t unmatched_begins = 0;
  size_t exported_spans = 0;
  auto base = [](const TraceEvent& e, const char* ph) {
    Json ev = Json::Object();
    ev.Set("name", Json::Str(TraceStageName(e.stage)));
    ev.Set("ph", Json::Str(ph));
    ev.Set("ts", Json::Int(e.wall_ns / 1000));
    ev.Set("pid", Json::Int(1));
    ev.Set("tid", Json::Int(e.lane));
    return ev;
  };
  auto make_args = [](const TraceEvent& e) {
    Json args = Json::Object();
    args.Set("trace_id", Json::Int(e.trace_id));
    args.Set("span_id", Json::Int(e.span_id));
    args.Set("parent_span_id", Json::Int(e.parent_span_id));
    args.Set("sim_us", Json::Int(e.sim_us));
    args.Set("lane", Json::Int(e.lane));
    args.Set("arg", Json::Int(e.arg));
    return args;
  };
  for (const Open& open : spans) {
    if (!open.matched) {
      ++unmatched_begins;
      continue;
    }
    Json ev = base(open.begin, "X");
    uint64_t dur_ns = open.end.wall_ns - open.begin.wall_ns;
    ev.Set("dur", Json::Int(dur_ns / 1000));
    // Exact figures for tooling: Chrome's ts/dur are microseconds, which
    // quantizes sub-us spans to zero; sim-time duration rides in args.
    Json args = make_args(open.begin);
    args.Set("dur_ns", Json::Int(dur_ns));
    args.Set("sim_dur_us", Json::Int(open.end.sim_us - open.begin.sim_us));
    ev.Set("args", std::move(args));
    trace_events.Append(std::move(ev));
    ++exported_spans;
  }
  for (const TraceEvent* e : instants) {
    Json ev = base(*e, "i");
    ev.Set("s", Json::Str("t"));
    ev.Set("args", make_args(*e));
    trace_events.Append(std::move(ev));
  }

  Json doc = Json::Object();
  doc.Set("traceEvents", std::move(trace_events));
  doc.Set("displayTimeUnit", Json::Str("ms"));
  Json meta = Json::Object();
  meta.Set("schema", Json::Str("prever.trace.v1"));
  meta.Set("traces_minted", Json::Int(traces_minted()));
  meta.Set("traces_sampled", Json::Int(traces_sampled()));
  meta.Set("events_snapshot", Json::Int(events.size()));
  meta.Set("spans_exported", Json::Int(exported_spans));
  meta.Set("unmatched_begins_dropped", Json::Int(unmatched_begins));
  meta.Set("orphan_ends_dropped", Json::Int(orphan_ends));
  doc.Set("prever", std::move(meta));
  return doc;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::string text = ChromeTraceDoc().Dump();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file " + path);
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return Status::Internal("short write to trace file " + path);
  }
  return Status::Ok();
}

// ----------------------------------------------------- ScopedTraceContext

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx)
    : saved_(t_current_context) {
  t_current_context = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { t_current_context = saved_; }

// --------------------------------------------------------------- TraceSpan

TraceSpan::TraceSpan(TraceStage stage, uint64_t arg, bool root)
    : stage_(stage) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  // Non-root spans are child-only: with no sampled context on the thread
  // they stay silent, so a dropped transaction never fragments into
  // orphan phase roots.
  ctx_ = root ? tracer.BeginSpan(stage, TraceContext{}, arg)
              : tracer.BeginChild(stage, t_current_context, arg);
  if (!ctx_.sampled()) return;
  saved_ = t_current_context;
  t_current_context = ctx_;
  open_ = true;
}

void TraceSpan::End() {
  if (!open_) return;
  open_ = false;
  Tracer::Get().EndSpan(ctx_, stage_);
  t_current_context = saved_;
}

}  // namespace prever::obs
