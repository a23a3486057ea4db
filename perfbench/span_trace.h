// In-memory span tracer for the purchase benchmark's traced replay.
//
// The benchmark wraps each call it makes into a layer of the program
// (catalog routing, shard admission, curve-cache lookup, quote, commit,
// auditor tap) in a Span. Spans nest; a span's self time is its duration
// minus the time covered by its children, so per-layer self times add up
// to the traced wall time minus whatever the benchmark itself spends
// between spans and the tracer's own cost, which MeasureSpanCost
// calibrates so it can be taken out. Aggregates are kept for every span;
// the first `kept_capacity` spans are also kept verbatim and written out
// as Chrome-tracing JSON at exit.

#ifndef NIMBUS_PERFBENCH_SPAN_TRACE_H_
#define NIMBUS_PERFBENCH_SPAN_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanTracer {
 public:
  // `names` indexes every span kind by its layer name.
  SpanTracer(std::vector<std::string> names, size_t kept_capacity)
      : names_(std::move(names)),
        totals_(names_.size()),
        kept_capacity_(kept_capacity) {
    kept_.reserve(kept_capacity_);
  }

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void Begin(int name, uint64_t purchase) {
    stack_.push_back(Open{name, purchase, NowNs(), 0});
  }

  // Closes the innermost span.
  void End() {
    const int64_t end = NowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t duration = end - open.start;
    Totals& totals = totals_[open.name];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - open.child_ns;
    const int parent = stack_.empty() ? -1 : stack_.back().name;
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    }
    last_ = Last{open.name, duration, duration - open.child_ns, -1};
    if (kept_.size() < kept_capacity_) {
      last_.kept_index = static_cast<int64_t>(kept_.size());
      kept_.push_back(
          Kept{open.name, parent, open.purchase, open.start, duration});
    }
  }

  // Files the most recently closed span under another kind, for calls
  // whose layer is known only once they return (a commit that also took
  // a checkpoint).
  void RenameLast(int name) {
    Totals& from = totals_[last_.name];
    --from.count;
    from.total_ns -= last_.duration_ns;
    from.self_ns -= last_.self_ns;
    Totals& to = totals_[name];
    ++to.count;
    to.total_ns += last_.duration_ns;
    to.self_ns += last_.self_ns;
    if (last_.kept_index >= 0) {
      kept_[last_.kept_index].name = name;
    }
    last_.name = name;
  }

  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  const Totals& totals(int name) const { return totals_[name]; }
  const std::string& name(int index) const { return names_[index]; }
  int num_names() const { return static_cast<int>(names_.size()); }

  // The tracer's own cost per span, measured on empty spans: `inside_ns`
  // falls within the span's recorded duration (so inflates the layer's
  // self time), `total_ns` is the whole wall-clock cost of one span.
  struct SpanCost {
    double inside_ns = 0.0;
    double total_ns = 0.0;
  };
  static SpanCost MeasureSpanCost() {
    constexpr int kSpans = 100000;
    std::vector<double> inside;
    std::vector<double> total;
    for (int batch = 0; batch < 5; ++batch) {
      SpanTracer probe({"empty"}, 0);
      const int64_t start = NowNs();
      for (int i = 0; i < kSpans; ++i) {
        probe.Begin(0, static_cast<uint64_t>(i));
        probe.End();
      }
      total.push_back(static_cast<double>(NowNs() - start) / kSpans);
      inside.push_back(static_cast<double>(probe.totals(0).total_ns) / kSpans);
    }
    std::sort(inside.begin(), inside.end());
    std::sort(total.begin(), total.end());
    return SpanCost{inside[inside.size() / 2], total[total.size() / 2]};
  }

  // Writes the kept spans as Chrome-tracing JSON ("X" events, one
  // thread; args carry the purchase index and the parent layer).
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Kept& k = kept_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"purchase\":%llu,"
                   "\"parent\":\"%s\"}}%s\n",
                   names_[k.name].c_str(),
                   static_cast<double>(k.start_ns - origin) / 1000.0,
                   static_cast<double>(k.duration_ns) / 1000.0,
                   static_cast<unsigned long long>(k.purchase),
                   k.parent >= 0 ? names_[k.parent].c_str() : "",
                   i + 1 < kept_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    int name = 0;
    uint64_t purchase = 0;
    int64_t start = 0;
    int64_t child_ns = 0;
  };
  struct Last {
    int name = 0;
    int64_t duration_ns = 0;
    int64_t self_ns = 0;
    int64_t kept_index = -1;
  };
  struct Kept {
    int name = 0;
    int parent = -1;
    uint64_t purchase = 0;
    int64_t start_ns = 0;
    int64_t duration_ns = 0;
  };

  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  size_t kept_capacity_;
  Last last_;
};

// RAII span that records nothing when `tracer` is null, so the traced
// and untraced replay run the same calls in the same order.
class Span {
 public:
  Span(SpanTracer* tracer, int name, uint64_t purchase) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name, purchase);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* tracer_;
};

}  // namespace perfbench

#endif  // NIMBUS_PERFBENCH_SPAN_TRACE_H_
