// Benchmark-side span recording for the traced run.
//
// The traced run wraps every call into a layer's public function in a span
// kept in memory. A layer's self time is its spans' durations minus the
// part of each interval its child spans cover; whatever the session's root
// span covers that no child accounts for is reported as unattributed.
// One recorder belongs to one thread; concurrent clients each own one and
// merge their totals at the end.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Totals of every span that shares one name.
struct LayerTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  ///< a string literal
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name)
        : recorder_(recorder), id_(recorder->Begin(name)) {}
    ~Scope() { recorder_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int id_;
  };

  /// Opens a span under the innermost open one.
  int Begin(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }

  void End(int id) {
    spans_[id].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Adds every closed span's duration and self time to `totals`, keyed by
  /// name, and drops the spans. Call between sessions so memory stays
  /// bounded by one session's spans.
  void Fold(std::map<std::string, LayerTotals>& totals) {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        children[span.parent].emplace_back(span.start_ns, span.end_ns);
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      LayerTotals& layer = totals[span.name];
      ++layer.count;
      layer.total_ns += span.end_ns - span.start_ns;
      layer.self_ns += span.end_ns - span.start_ns -
                       CoveredNs(children[i], span.start_ns, span.end_ns);
    }
    spans_.clear();
    open_.clear();
  }

  /// Length of the union of `intervals`, clipped to [start, end].
  static int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                           int64_t start, int64_t end) {
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = start;
    for (auto [from, to] : intervals) {
      from = std::max(from, reach);
      to = std::min(to, end);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    return covered;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
