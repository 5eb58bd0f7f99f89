#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::uint64_t Tracer::next_id() noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

void Tracer::record(const Span& span) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Tracer::read(std::string name, double value) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  readings_.push_back({std::move(name), value});
}

std::vector<const Span*> Tracer::named(const char* name) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(&s);
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write span file " + path);
  for (const Span& s : spans_) {
    file << "{\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"items\":" << s.items
         << ",\"lanes\":" << s.lanes << ",\"thread\":" << s.thread
         << "}\n";
  }
  for (const Reading& r : readings_) {
    file << "{\"reading\":\"" << r.name << "\",\"value\":" << r.value
         << "}\n";
  }
  if (!file) throw std::runtime_error("short write to span file " + path);
}

std::uint32_t thread_tag() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name,
                       std::uint64_t parent, std::uint64_t items)
    : tracer_(&tracer) {
  span_.name = name;
  span_.parent = parent;
  span_.items = items;
  if (tracer.enabled()) span_.id = tracer.next_id();
  span_.start_ns = tracer.now_ns();
}

double ScopedSpan::stop() {
  if (open_) {
    span_.end_ns = tracer_->now_ns();
    span_.thread = thread_tag();
    tracer_->record(span_);
    open_ = false;
  }
  return span_.seconds();
}

std::int64_t covered_ns(std::vector<const Span*> spans, std::int64_t lo,
                        std::int64_t hi) {
  std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (const Span* s : spans) {
    const std::int64_t start = std::max(s->start_ns, reach);
    const std::int64_t end = std::min(s->end_ns, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

}  // namespace perfbench
