// Bench-side spans: the benchmark times its own calls into each layer of the
// library (nothing inside src/ is instrumented for this). Spans are kept in
// memory and written as Chrome trace JSON when the run ends.
//
// A span's layer is the part of its name before the first '.', e.g.
// "core.route" belongs to layer "core". Every span carries the pass and the
// cycle it ran in; the cycle id is the identifier all spans of one elastic
// cycle share.
#ifndef ELASTICBENCH_TRACER_H_
#define ELASTICBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ebench {

int64_t NowNs();

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // Index into the span list; -1 for a root.
  int32_t pass = 0;
  int32_t cycle = -1;
};

class Tracer {
 public:
  /// Recording is on only while `recording()`; timing works either way.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }
  void set_pass(int pass) { pass_ = pass; }
  void set_cycle(int cycle) { cycle_ = cycle; }

  /// Opens a span starting at `start_ns`; returns its id (-1 when not
  /// recording).
  int Open(const char* name, int64_t start_ns);
  void Close(int id, int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per layer in ns (span time minus the time its direct
  /// children cover), over every recorded span.
  std::map<std::string, int64_t> LayerSelfNs() const;

  /// Writes every span as Chrome trace "X" events plus `other_data` (a
  /// JSON object body) under "otherData".
  bool WriteChromeTrace(const std::string& path,
                        const std::string& other_data) const;

 private:
  bool recording_ = false;
  int pass_ = 0;
  int cycle_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// Times one call into a layer; records a span when the tracer records.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer),
        start_ns_(NowNs()),
        id_(tracer.Open(name, start_ns_)) {}
  ~Span() {
    if (!closed_) Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span; returns its duration in ns.
  int64_t Close() {
    const int64_t end = NowNs();
    tracer_.Close(id_, end);
    closed_ = true;
    return end - start_ns_;
  }

 private:
  Tracer& tracer_;
  int64_t start_ns_;
  int id_;
  bool closed_ = false;
};

}  // namespace ebench

#endif  // ELASTICBENCH_TRACER_H_
