// mpas_bench: the compiled half of the benchmark. perfbench/run.py builds
// it, gives every invocation its own empty working directory and mesh
// cache, and aggregates what it writes.
//
//   mpas_bench selftest --dir D
//   mpas_bench run --workload W --seed N --seconds S --trace 0|1
//                  --setup-only 0|1 --dir D --out FILE
//   mpas_bench capacity --seed N --sessions K --dir D
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mesh/mesh_cache.hpp"
#include "service/session.hpp"
#include "sw/model.hpp"
#include "sw/testcases.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_metrics(const Outcome::Metrics& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += json_escape(k);
    out += "\":";
    out += json_number(v);
  }
  return out + "}";
}

void write_outcome(const Outcome& o, const std::string& path) {
  std::ofstream out(path);
  out << "{\"setup_s\":" << json_number(o.setup_s)
      << ",\"peak_rss_mb\":" << json_number(o.peak_rss_mb)
      << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.failed;
  if (!o.latency_ms.empty()) {
    const Percentile p50 = percentile(o.latency_ms, 50);
    const Percentile p90 = percentile(o.latency_ms, 90);
    const Percentile p99 = percentile(o.latency_ms, 99);
    out << ",\"latency_ms_p50\":" << json_number(p50.value)
        << ",\"latency_ms_p90\":" << json_number(p90.value)
        << ",\"latency_ms_p99\":" << json_number(p99.value)
        << ",\"samples\":" << p90.n << ",\"beyond_p90\":" << p90.beyond
        << ",\"beyond_p99\":" << p99.beyond
        << ",\"latency_samples_ms\":[";
    for (std::size_t i = 0; i < o.latency_ms.size(); ++i)
      out << (i ? "," : "") << json_number(o.latency_ms[i]);
    out << "]";
  }
  out << ",\"checks\":[";
  for (std::size_t i = 0; i < o.checks.size(); ++i)
    out << (i ? "," : "") << "{\"name\":\"" << json_escape(o.checks[i].name)
        << "\",\"ok\":" << (o.checks[i].ok ? "true" : "false")
        << ",\"detail\":\"" << json_escape(o.checks[i].detail) << "\"}";
  out << "],\"diag\":" << json_metrics(o.diag)
      << ",\"layer\":" << json_metrics(o.layer) << "}\n";
}

// ---- self-tests --------------------------------------------------------------

int expect(bool ok, const char* what) {
  if (!ok) std::cerr << "selftest FAILED: " << what << "\n";
  return ok ? 0 : 1;
}

int test_percentile() {
  int fails = 0;
  std::vector<double> hundred, thousand;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted on purpose
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const Percentile p50 = percentile(hundred, 50);
  const Percentile p90 = percentile(hundred, 90);
  const Percentile p99 = percentile(thousand, 99);
  const Percentile one = percentile({4.0}, 99);
  fails += expect(p50.value == 50 && p50.n == 100 && p50.beyond == 50, "p50 of 1..100");
  fails += expect(p90.value == 90 && p90.beyond == 10, "p90 of 1..100 has 10 beyond");
  fails += expect(p99.value == 990 && p99.n == 1000 && p99.beyond == 10,
                  "p99 of 1..1000 has 10 beyond");
  fails += expect(one.value == 4 && one.n == 1 && one.beyond == 0, "p99 of one sample");
  bool threw = false;
  try {
    (void)percentile({}, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  fails += expect(threw, "percentile of no samples throws");
  return fails;
}

bool same_schedule(const std::vector<Arrival>& a, const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].due_ms != b[i].due_ms || std::strcmp(a[i].tenant, b[i].tenant) != 0 ||
        a[i].level != b[i].level || a[i].test_case != b[i].test_case ||
        a[i].steps != b[i].steps)
      return false;
  return true;
}

int test_schedule() {
  const auto a = make_schedule(7, kSessionRate, 5.0);
  const auto b = make_schedule(7, kSessionRate, 5.0);
  const auto c = make_schedule(8, kSessionRate, 5.0);
  bool ordered = !a.empty();
  for (std::size_t i = 1; i < a.size(); ++i)
    ordered = ordered && a[i - 1].due_ms <= a[i].due_ms && a[i].due_ms < 5000;
  int fails = 0;
  fails += expect(same_schedule(a, b), "same seed gives the same schedule");
  fails += expect(!same_schedule(a, c), "another seed gives another schedule");
  fails += expect(ordered, "schedule is non-empty, ordered, inside the window");
  return fails;
}

int test_hash_check() {
  namespace sw = mpas::sw;
  const auto mesh = mpas::mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  sw::SwModel model(*mesh, params);
  sw::apply_initial_conditions(*tc, *mesh, model.fields());
  model.initialize();
  model.run(2);
  const std::uint64_t want = mpas::service::reference_hash(3, 5, 2);
  int fails = expect(mpas::service::state_hash(model.fields()) == want,
                     "an unmodified run matches its reference hash");
  auto h = model.fields().get(sw::FieldId::H);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &h[17], sizeof bits);
  bits ^= 1;  // the least significant mantissa bit
  std::memcpy(&h[17], &bits, sizeof bits);
  fails += expect(mpas::service::state_hash(model.fields()) != want,
                  "one flipped bit in H fails the hash check");
  return fails;
}

// ---- CLI -------------------------------------------------------------------------

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& f, const char* key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::invalid_argument(std::string("missing --") + key);
  return it->second;
}

int run_main(int argc, char** argv) {
  mpas::Logger::instance().set_level(mpas::LogLevel::Warn);
  if (argc < 2) throw std::invalid_argument("usage: mpas_bench selftest|run|capacity ...");
  const std::string mode = argv[1];
  const auto flags = parse_flags(argc, argv);
  RunConfig cfg;
  cfg.dir = need(flags, "dir");
  if (flags.count("seed")) cfg.seed = std::stoull(flags.at("seed"));

  if (mode == "selftest") {
    const int fails = test_percentile() + test_schedule() + test_hash_check();
    std::cout << "{\"selftest_failures\":" << fails
              << ",\"host_probe_ms\":" << json_number(host_speed_probe_ms())
              << "}" << std::endl;
    return fails == 0 ? 0 : 1;
  }
  if (mode == "capacity") {
    const int sessions = std::stoi(need(flags, "sessions"));
    std::cout << "{\"sessions_per_s\":"
              << json_number(measure_session_capacity(cfg, sessions)) << "}"
              << std::endl;
    return 0;
  }
  if (mode != "run") throw std::invalid_argument("unknown mode " + mode);

  const std::string workload = need(flags, "workload");
  cfg.seconds = std::stod(need(flags, "seconds"));
  cfg.trace = need(flags, "trace") == "1";
  cfg.setup_only = need(flags, "setup-only") == "1";
  const std::string out_path = need(flags, "out");
  tracer().enabled = cfg.trace;

  Outcome out;
  if (workload == "model_l7") {
    out = run_model(cfg);
  } else if (workload == "ranks_l6") {
    out = run_ranks(cfg);
  } else if (workload == "sessions_l3l4") {
    out = run_sessions(cfg, cfg.seconds);
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  if (cfg.trace && !cfg.setup_only) {
    run_probes(cfg, workload, out);
    out.layer["trace.spans"] = static_cast<double>(tracer().size());
    tracer().write_json(cfg.dir + "/spans.json");
  }
  write_outcome(out, out_path);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mpas_bench: " << e.what() << std::endl;
    return 2;
  }
}
