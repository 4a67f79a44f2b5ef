#include "tracer.h"

#include <cstdio>

namespace ebench {

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int Tracer::Open(const char* name, int64_t start_ns) {
  if (!recording_) return -1;
  SpanRecord span;
  span.name = name;
  span.start_ns = start_ns;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.pass = pass_;
  span.cycle = cycle_;
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int id, int64_t end_ns) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
  // Spans nest strictly (RAII on one thread), so the closing span is the top.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

namespace {

std::string LayerOf(const char* name) {
  const std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

std::map<std::string, int64_t> Tracer::LayerSelfNs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    self[LayerOf(s.name)] += s.end_ns - s.start_ns - child_ns[i];
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& other_data) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{%s},\n",
               other_data.c_str());
  std::fprintf(f, "\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"pass\":%d,\"cycle\":%d}}\n",
                 i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.pass, s.cycle);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace ebench
