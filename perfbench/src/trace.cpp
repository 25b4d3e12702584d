#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Span::Span(Tracer& tracer, std::string name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.records_.size());
  Record record;
  record.name = std::move(name);
  record.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  record.start_ns = tracer_.now_ns();
  tracer_.records_.push_back(std::move(record));
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_.records_[static_cast<std::size_t>(index_)].end_ns =
      tracer_.now_ns();
  tracer_.open_.pop_back();
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;  // still open: not a complete event
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}",
                 first ? "" : ",\n", json_escape(r.name).c_str(),
                 json_escape(r.name.substr(0, r.name.find('.'))).c_str(),
                 static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, i,
                 r.parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

}  // namespace perfbench
