// Shared pieces of mpas_bench: clocks, percentiles, the span
// recorder, the open-loop session schedule, and the result record every
// workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock since the process started (the
/// origin is fixed during static initialization, before main()).
double now_ms();

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `beyond` counts the samples strictly after that
/// rank, so a tail percentile is reportable when beyond >= 10.
struct Percentile {
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
Percentile percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// ---- spans -------------------------------------------------------------------

/// One timed interval around a call into a module. `layer` is the module
/// the call enters; `group` ties together the spans of one step or session.
struct Span {
  std::string name;
  std::string layer;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  std::uint64_t group = 0;
};

/// In-memory span log for the benchmark's own thread. Spans nest through a
/// stack, so a span's parent is the span open when it started. Disabled,
/// every call is one branch.
class Tracer {
 public:
  bool enabled = false;

  int open(const char* name, const char* layer, std::uint64_t group);
  void close(int index);
  /// A span observed after the fact (session queue/run intervals).
  int add(const char* name, const char* layer, double start_ms, double end_ms,
          int parent, std::uint64_t group);

  /// Self time per layer: each span's duration minus the time its children
  /// cover, summed by layer.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  void write_json(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, std::uint64_t group = 0)
      : index_(tracer().enabled ? tracer().open(name, layer, group) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

// ---- open-loop schedule --------------------------------------------------------

struct Arrival {
  double due_ms = 0;  // offset from the start of the timed window
  const char* tenant = "a";  // "a" (weight 2) or "b" (weight 1)
  int level = 3;
  int test_case = 2;
  int steps = 4;
};

/// round(rate_per_s * seconds) arrivals at uniformly random times in the
/// window (a Poisson process conditioned on its count); tenant "a" (weight 2)
/// twice as often as tenant "b" (weight 1); level 4 twice as often as level
/// 3, test case 2/5/6 and 4..12 steps uniformly. The level split keeps the
/// median latency inside the level-4 sessions: at 1:1 it sat in the gap
/// between the two levels and jumped between them from seed to seed. The
/// same seed always gives the same schedule.
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double seconds);

// ---- results ---------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Outcome {
  using Metrics = std::map<std::string, double>;

  double setup_s = 0;
  double peak_rss_mb = 0;
  /// End-to-end latency samples: one RK-4 step or one session (due time to
  /// observed terminal), in ms.
  std::vector<double> latency_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Check> checks;
  /// Outlier diagnostics, printed on every run.
  Metrics diag;
  /// Per-layer metrics (traced runs only).
  Metrics layer;

  void check(const std::string& name, bool ok, const std::string& detail);
};

}  // namespace perfbench
