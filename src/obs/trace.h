// Low-overhead wall-clock span tracer: where does time go, per thread,
// across threads.
//
// The metric registry (metrics.h) answers "how much / how slow in
// aggregate"; this tracer answers "what was thread 3 doing between t=41ms
// and t=58ms, and which thread handed it that work". Every instrumented
// stage runs under a Stage (stage.h), which records each finished segment
// here as a span; spans land in a per-thread lock-free ring buffer as plain
// timestamp+duration events, and the rings are drained into Chrome
// trace-event JSON (loadable in chrome://tracing and Perfetto) either at
// process exit (COCONUT_TRACE=<path>) or live over a capture window (the
// admin server's /tracez endpoint).
//
// Recording-cost contract (see src/obs/README.md):
//  * Tracing disabled: opening a Stage that feeds no histogram or sink is
//    one relaxed atomic load and a branch, with no clock read — cheap
//    enough to leave compiled into every stage, always.
//  * Tracing enabled: one NowNanos() read per stage boundary (shared with
//    the Stage's histogram and sink, if any) and six relaxed atomic stores
//    into the calling thread's own ring per span. No locks, no allocation
//    after the thread's first span, no cross-thread cache traffic on the
//    hot path.
//  * Rings are fixed-size and overwrite their oldest events (it is a flight
//    recorder, not a log): a drain returns the most recent <= capacity
//    events per thread. "obs.trace.events" counts appends for drop math.
//
// Concurrency: each ring has exactly one writer (its owning thread); the
// drain runs on another thread. Every event field is a relaxed atomic, so
// concurrent drain-during-write is data-race-free; an event overwritten
// mid-drain can come out torn (mixed fields) and is filtered by sanity
// checks. Drains are expected to run after Stop() (or on idle rings in env
// mode), where no tearing is possible for settled slots.
//
// Span names must be string literals (or otherwise immortal): the ring
// stores the pointer, not a copy.
#ifndef COCONUT_OBS_TRACE_H_
#define COCONUT_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sync.h"

namespace coconut {

/// One drained event, plain data. Phases follow the Chrome trace-event
/// format: 'X' = complete span, 's'/'f' = flow start / flow finish (the
/// arrow linking a ThreadPool enqueue to its dequeue+execution).
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  uint64_t ts_ns = 0;   // start, relative to the process trace epoch
  uint64_t dur_ns = 0;  // 'X' only
  uint64_t flow_id = 0; // 's'/'f' only
  uint32_t tid = 0;     // stable small id, assigned per thread on first use
  char phase = 'X';
};

class Tracer {
 public:
  /// `ring_capacity` is events retained per thread, rounded up to a power
  /// of two. The default keeps a ring under ~0.5 MiB per thread.
  explicit Tracer(size_t ring_capacity = kDefaultRingCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static constexpr size_t kDefaultRingCapacity = 8192;

  /// The process-wide tracer (never destroyed). First use arms the env
  /// toggles:
  ///   COCONUT_TRACE=<path>     -> tracing on from startup, Chrome JSON
  ///                               written to <path> at exit (and on
  ///                               SIGINT/SIGTERM, see exit_hooks.h)
  ///   COCONUT_TRACE_RING=<n>   -> per-thread ring capacity in events
  static Tracer& Default();

  /// Hot-path check, kept branch-cheap: one relaxed load once the default
  /// tracer exists (the first call constructs it, arming the env toggles).
  static bool Enabled() {
    Tracer* t = default_instance_.load(std::memory_order_acquire);
    if (t == nullptr) t = &Default();
    return t->active();
  }

  bool active() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts recording. Events already in the rings stay (drains are
  /// windowed by timestamp, not by toggling).
  void Start() { enabled_.store(true, std::memory_order_relaxed); }
  void Stop() { enabled_.store(false, std::memory_order_relaxed); }

  /// Nanoseconds since the process trace epoch (first Tracer use); the
  /// common clock every event is stamped with.
  static uint64_t NowNanos();

  /// Appends a completed span to the calling thread's ring.
  void RecordComplete(const char* name, const char* cat, uint64_t start_ns,
                      uint64_t end_ns);
  /// Appends a flow event ('s' start on the enqueuing thread, 'f' finish on
  /// the executing thread) with an explicit timestamp.
  void RecordFlow(char phase, const char* name, uint64_t flow_id,
                  uint64_t ts_ns);
  /// Process-unique id linking one 's' to one 'f'. Never returns 0 (0 means
  /// "no flow" in carriers like ThreadPool::QueueEntry).
  uint64_t NextFlowId() {
    return next_flow_id_.fetch_add(1, std::memory_order_relaxed) | 1ull << 63;
  }

  /// Most recent events from every thread ring with ts_ns >= since_ns,
  /// sorted by timestamp. Torn slots (overwritten mid-drain) are filtered.
  std::vector<TraceEvent> DrainEvents(uint64_t since_ns = 0) const;

  /// DrainEvents rendered as Chrome trace-event JSON:
  ///   {"traceEvents":[...],"displayTimeUnit":"ms"}
  /// Load the string directly in Perfetto or chrome://tracing.
  std::string ToJson(uint64_t since_ns = 0) const;

  /// /tracez implementation: records for `duration_ms` (enabling tracing if
  /// it was off, restoring the previous state after) and returns the JSON
  /// for exactly that window.
  std::string CaptureWindow(uint64_t duration_ms);

 private:
  struct Ring;

  Ring* ThreadRing();

  // Set once Default() constructs; lets Enabled() avoid the magic-static
  // guard cost on the hot path.
  static std::atomic<Tracer*> default_instance_;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_flow_id_{1};
  std::atomic<uint32_t> next_tid_{1};
  // Process-unique instance id; the thread-local ring cache keys on this
  // instead of `this` (a new tracer allocated at a destroyed one's address
  // must not revive the stale cached ring pointer).
  const uint64_t tracer_id_;
  size_t ring_capacity_;

  mutable Mutex rings_mu_;
  // One ring per thread, never removed. The registry vector is guarded;
  // the rings' slots themselves are lock-free atomics.
  std::vector<std::shared_ptr<Ring>> rings_ GUARDED_BY(rings_mu_);
};

}  // namespace coconut

#endif  // COCONUT_OBS_TRACE_H_
