#include "perfbench/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), us(s.start),
                 us(s.end));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer), on_(tracer.enabled()) {
  if (!on_) return;
  span_.name = name;
  span_.id = tracer.NewId();
  span_.parent = parent;
  span_.request = request;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end = Clock::now();
  tracer_.Record(span_);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

uint64_t Digest(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
