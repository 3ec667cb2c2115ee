// Stage: the one timing primitive for instrumented stages. Each boundary
// reads the clock once and hands that one segment to up to three
// consumers, so they always agree to the nanosecond:
//
//  * the span tracer (trace.h), when tracing was on as the segment opened;
//  * a latency Histogram (metrics.h), e.g. "forest.flush_ns";
//  * a plain uint64_t accumulator (+=), e.g. a QueryTrace stage field.
//
// Two forms share the boundary code. Single segment (RAII): the stage opens
// at construction and closes at destruction (or at an earlier End()).
// Sequential: Mark() closes the current segment and opens the next one at
// the same instant, so consecutive segments are contiguous.
//
//   Stage stage(sites.route, "query", nullptr, &trace->route_ns);
//   ...route...
//   stage.Mark(sites.approx, "query", nullptr, &trace->approx_ns);
//   ...approx...
//   // destructor closes the approx segment
//
// Cost: a segment with tracing off and no histogram or sink reads no clock
// (one relaxed load and a branch to open it, one branch to close it); a
// boundary that closes or opens a timed segment reads the clock exactly
// once. Span names must be string literals (or otherwise immortal); a null
// name records no span.
#ifndef COCONUT_OBS_STAGE_H_
#define COCONUT_OBS_STAGE_H_

#include <cstdint>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace coconut {

class Stage {
 public:
  Stage(const char* name, const char* cat, Histogram* hist = nullptr,
        uint64_t* sink = nullptr) {
    Boundary(name, cat, hist, sink);
  }
  ~Stage() { End(); }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Closes the current segment and, at the same instant, opens one named
  /// `name` feeding `hist` and `sink`.
  void Mark(const char* name, const char* cat, Histogram* hist = nullptr,
            uint64_t* sink = nullptr) {
    Boundary(name, cat, hist, sink);
  }

  /// Closes the current segment without opening another; the destructor
  /// then records nothing. Returns the segment's nanoseconds (0 if
  /// untimed).
  uint64_t End() { return Boundary(nullptr, nullptr, nullptr, nullptr); }

 private:
  static constexpr uint64_t kUntimed = ~uint64_t{0};

  uint64_t Boundary(const char* name, const char* cat, Histogram* hist,
                    uint64_t* sink) {
    const bool traced = name != nullptr && Tracer::Enabled();
    const bool timed = traced || hist != nullptr || sink != nullptr;
    uint64_t now = kUntimed;
    uint64_t dur = 0;
    if (start_ns_ != kUntimed || timed) now = Tracer::NowNanos();
    if (start_ns_ != kUntimed) {
      dur = now - start_ns_;
      if (traced_) {
        Tracer::Default().RecordComplete(name_, cat_, start_ns_, now);
      }
      if (hist_ != nullptr) hist_->Record(dur);
      if (sink_ != nullptr) *sink_ += dur;
    }
    name_ = name;
    cat_ = cat;
    hist_ = hist;
    sink_ = sink;
    traced_ = traced;
    start_ns_ = timed ? now : kUntimed;
    return dur;
  }

  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  Histogram* hist_ = nullptr;
  uint64_t* sink_ = nullptr;
  bool traced_ = false;
  uint64_t start_ns_ = kUntimed;
};

}  // namespace coconut

#endif  // COCONUT_OBS_STAGE_H_
