#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace elasticore_bench {

void LogHistogram::Add(int64_t ns) {
  if (ns < 0) ns = 0;
  int bucket = 0;
  if (ns < kSub) {
    bucket = static_cast<int>(ns);
  } else {
    const int exp = 63 - __builtin_clzll(static_cast<uint64_t>(ns));
    bucket = static_cast<int>((exp - kSubBits + 1) * kSub +
                              ((ns >> (exp - kSubBits)) - kSub));
  }
  buckets_[static_cast<size_t>(bucket)]++;
  min_ns_ = count_ == 0 ? ns : std::min(min_ns_, ns);
  max_ns_ = std::max(max_ns_, ns);
  count_++;
  if (exact_complete_) {
    if (exact_.size() < kExactSamples) {
      exact_.push_back(ns);
    } else {
      DropExact();
    }
  }
}

void LogHistogram::DropExact() {
  exact_complete_ = false;
  exact_.clear();
  exact_.shrink_to_fit();
}

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  min_ns_ = count_ == 0 ? other.min_ns_ : std::min(min_ns_, other.min_ns_);
  max_ns_ = std::max(max_ns_, other.max_ns_);
  count_ += other.count_;
  if (exact_complete_ && other.exact_complete_ &&
      exact_.size() + other.exact_.size() <= kExactSamples) {
    exact_.insert(exact_.end(), other.exact_.begin(), other.exact_.end());
  } else if (exact_complete_) {
    DropExact();
  }
}

double LogHistogram::QuantileNs(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (exact_complete_) {
    std::vector<int64_t> sorted = exact_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lower = static_cast<size_t>(pos);
    const size_t upper = std::min(lower + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lower);
    return static_cast<double>(sorted[lower]) +
           frac * static_cast<double>(sorted[upper] - sorted[lower]);
  }
  const double rank = q * static_cast<double>(count_);
  int64_t before = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const int64_t n = buckets_[static_cast<size_t>(b)];
    if (n == 0) continue;
    if (static_cast<double>(before + n) >= rank) {
      double lower = b;
      double width = 1.0;
      if (b >= kSub) {
        const int exp = b / static_cast<int>(kSub) + kSubBits - 1;
        const int64_t sub = b % kSub;
        lower = static_cast<double>((kSub + sub) << (exp - kSubBits));
        width = static_cast<double>(int64_t{1} << (exp - kSubBits));
      }
      const double frac = (rank - static_cast<double>(before)) /
                          static_cast<double>(n);
      return std::clamp(lower + frac * width, static_cast<double>(min_ns_),
                        static_cast<double>(max_ns_));
    }
    before += n;
  }
  return static_cast<double>(max_ns_);
}

SpanLog::Total& SpanLog::TotalFor(const char* name, const char* parent) {
  for (Total& total : totals_) {
    if (total.name == name || std::strcmp(total.name, name) == 0) return total;
  }
  totals_.emplace_back();
  totals_.back().name = name;
  totals_.back().parent = parent;
  return totals_.back();
}

void SpanLog::Add(const char* name, const char* parent, int64_t start_ns,
                  int64_t end_ns, bool keep) {
  Total& total = TotalFor(name, parent);
  total.ns += end_ns - start_ns;
  total.calls++;
  total.hist.Add(end_ns - start_ns);
  if (keep && kept_.size() < max_kept_) {
    kept_.push_back(Span{name, start_ns, end_ns - start_ns, tid_});
  }
}

void SpanLog::Merge(const SpanLog& other) {
  for (const Total& theirs : other.totals_) {
    Total& mine = TotalFor(theirs.name, theirs.parent);
    mine.ns += theirs.ns;
    mine.calls += theirs.calls;
    mine.hist.Merge(theirs.hist);
  }
  for (const Span& span : other.kept_) {
    if (kept_.size() >= max_kept_) break;
    kept_.push_back(span);
  }
}

const SpanLog::Total* SpanLog::Find(const std::string& name) const {
  for (const Total& total : totals_) {
    if (name == total.name) return &total;
  }
  return nullptr;
}

int64_t SpanLog::TotalNs(const std::string& name) const {
  const Total* total = Find(name);
  return total == nullptr ? 0 : total->ns;
}

int64_t SpanLog::SelfNs(const std::string& name) const {
  int64_t self = TotalNs(name);
  for (const Total& total : totals_) {
    if (total.parent != nullptr && name == total.parent) self -= total.ns;
  }
  return self;
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               int64_t origin_ns) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& span = kept_[i];
    // The category is the layer: the span name up to its first dot.
    const char* dot = std::strchr(span.name, '.');
    const int layer_len = dot == nullptr ? static_cast<int>(std::strlen(span.name))
                                         : static_cast<int>(dot - span.name);
    std::fprintf(file,
                 "{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d}%s\n",
                 span.name, layer_len, span.name,
                 static_cast<double>(span.start_ns - origin_ns) / 1e3,
                 static_cast<double>(span.dur_ns) / 1e3, span.tid,
                 i + 1 == kept_.size() ? "" : ",");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace elasticore_bench
