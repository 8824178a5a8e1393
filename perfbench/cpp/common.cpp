#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <stdexcept>

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point g_origin =
    std::chrono::steady_clock::now();
}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - g_origin)
      .count();
}

Percentile percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (p <= 0 || p > 100) throw std::invalid_argument("percentile out of (0,100]");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return {samples[rank - 1], n, n - rank};
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50).value;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- spans -------------------------------------------------------------------

int Tracer::open(const char* name, const char* layer, std::uint64_t group) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, layer, now_ms(), 0, parent, group});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

int Tracer::add(const char* name, const char* layer, double start_ms,
                double end_ms, int parent, std::uint64_t group) {
  spans_.push_back({name, layer, start_ms, end_ms, parent, group});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_ms - spans_[i].start_ms;
    self[spans_[i].layer] += std::max(0.0, dur - child_ms[i]);
  }
  return self;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
        << "\",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
        << ",\"parent\":" << s.parent << ",\"group\":" << s.group << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

// ---- schedule ----------------------------------------------------------------

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double seconds) {
  // Hand-rolled draws over mt19937_64 (whose output sequence the standard
  // fixes), so the schedule does not depend on the library's distributions.
  std::mt19937_64 rng(seed);
  auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
  };
  constexpr int kCases[] = {2, 5, 6};
  // Poisson arrivals conditioned on their count: N uniform times, sorted.
  // A fixed count keeps the offered work, and so the memory the service
  // accumulates per session, the same for every seed.
  const auto n = static_cast<std::size_t>(std::llround(rate_per_s * seconds));
  std::vector<double> due(n);
  for (double& t : due) t = uniform() * seconds * 1000.0;
  std::sort(due.begin(), due.end());
  std::vector<Arrival> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Arrival& a = out[i];
    a.due_ms = due[i];
    a.tenant = uniform() < 2.0 / 3.0 ? "a" : "b";
    a.level = rng() % 3 == 0 ? 3 : 4;
    a.test_case = kCases[rng() % 3];
    a.steps = 4 + static_cast<int>(rng() % 9);
  }
  return out;
}

// ---- results -------------------------------------------------------------------

void Outcome::check(const std::string& name, bool ok,
                    const std::string& detail) {
  checks.push_back({name, ok, detail});
  if (!ok) failed += 1;
}

}  // namespace perfbench
