#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comm/distributed.hpp"
#include "mesh/mesh_cache.hpp"
#include "resilience/health/hybrid.hpp"
#include "service/session.hpp"
#include "service/session_manager.hpp"
#include "sw/invariants.hpp"
#include "sw/testcases.hpp"

namespace perfbench {

namespace health = mpas::resilience::health;
namespace service = mpas::service;
namespace sw = mpas::sw;

namespace {

// Steps run before the timed window: caches warm, lazy set-up done.
constexpr int kWarmupSteps = 3;
// The timed window keeps going past --seconds until the p90 has
// ten samples beyond it, but never past this multiple of --seconds.
constexpr double kMaxWindowFactor = 3.0;
// Mass is conserved to rounding; the resilience layer's tolerance.
constexpr double kMassDriftTol = 1e-9;

// The step the state hash is checked at, after the warm-up. It varies with
// the seed so that runs check different reference trajectories.
int hash_step_for(std::uint64_t seed) {
  return kWarmupSteps + 1 + static_cast<int>(seed % 3);
}

// The same parameters service::reference_hash integrates with.
sw::SwParams params_for(const sw::TestCase& tc, const mpas::mesh::VoronoiMesh& m) {
  sw::SwParams params;
  params.dt = sw::suggested_time_step(tc, m, 0.4);
  return params;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Every option set in code, none read from the environment.
health::SelfHealingHybrid::Options hybrid_options() {
  health::SelfHealingHybrid::Options opts;
  opts.health = health::HealthPolicy{};
  opts.sim = mpas::core::SimOptions{mpas::machine::paper_platform()};
  opts.retry = mpas::resilience::RetryPolicy{};
  opts.injector = nullptr;
  opts.threads = 0;  // inline: measures the program, not the scheduler
  opts.metric_scope = "perfbench.";
  opts.drift = mpas::obs::profiling::DriftPolicy{};
  return opts;
}

bool keep_measuring(double t_end, std::size_t samples) {
  const double now = now_ms();
  return now < t_end || samples < 100;  // p90 needs 100 samples for 10 beyond
}

void end_of_run_checks(Outcome& out, const mpas::mesh::VoronoiMesh& mesh,
                       const sw::FieldStore& fields,
                       const sw::Invariants& initial) {
  const sw::Invariants inv = sw::compute_invariants(mesh, fields);
  const double drift = inv.mass_drift(initial);
  out.check("mass_drift", drift <= kMassDriftTol,
            "relative mass drift " + std::to_string(drift));
  const sw::StateHealth h =
      sw::compute_state_health(mesh, fields, mesh.num_cells, mesh.num_edges);
  out.check("state_health", h.finite && h.h_min > 0,
            std::string(h.finite ? "finite" : "NON-FINITE") + ", h_min " +
                std::to_string(h.h_min));
}

void record_overhead(Outcome& out, const std::vector<double>& traced,
                     const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return;
  out.layer["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0;
}

// The timed window of the step workloads: one sample per call of `step`,
// inside a span named `name` on `layer`. `after(steps)` runs between
// samples, outside the timing. Traced runs alternate traced and untraced
// steps, so the overhead is measured between neighbours rather than across
// host-speed drift.
template <class Step, class After>
void time_steps(const RunConfig& cfg, const char* name, const char* layer,
                int steps, Outcome& out, Step&& step, After&& after) {
  std::vector<double> traced, untraced;
  Tracer& tr = tracer();
  const double t_end = now_ms() + cfg.seconds * 1000.0;
  const double t_cap = now_ms() + kMaxWindowFactor * cfg.seconds * 1000.0;
  while (keep_measuring(t_end, out.latency_ms.size()) && now_ms() < t_cap) {
    const bool traced_step = cfg.trace && steps % 2 == 1;
    tr.enabled = traced_step;
    const double t0 = now_ms();
    {
      const auto group = static_cast<std::uint64_t>(steps);
      ScopedSpan root("bench.step", "bench", group);
      ScopedSpan s(name, layer, group);
      step();
    }
    const double ms = now_ms() - t0;
    tr.enabled = cfg.trace;
    out.latency_ms.push_back(ms);
    (traced_step ? traced : untraced).push_back(ms);
    after(++steps);
  }
  out.peak_rss_mb = peak_rss_mb();
  out.attempted = steps;
  if (cfg.trace) record_overhead(out, traced, untraced);
}

}  // namespace

// ---- model_l7 ---------------------------------------------------------------------

Outcome run_model(const RunConfig& cfg) {
  Outcome out;
  std::shared_ptr<const mpas::mesh::VoronoiMesh> mesh;
  {
    ScopedSpan s("mesh.get_global_mesh", "mesh");
    mesh = mpas::mesh::get_global_mesh(7);
  }
  const auto tc = sw::make_test_case(5);
  std::optional<health::SelfHealingHybrid> sut;
  {
    ScopedSpan s("health.SelfHealingHybrid", "health");
    sut.emplace(*mesh, params_for(*tc, *mesh), hybrid_options());
  }
  sw::apply_initial_conditions(*tc, *mesh, sut->model().fields());
  const sw::Invariants initial =
      sw::compute_invariants(*mesh, sut->model().fields());
  {
    ScopedSpan s("health.initialize", "health");
    sut->initialize();
  }
  int steps = 0;
  for (; steps < kWarmupSteps; ++steps) {
    ScopedSpan s("health.step", "health", static_cast<std::uint64_t>(steps));
    sut->step();
  }
  out.setup_s = now_ms() / 1000.0;
  if (cfg.setup_only) return out;

  const int hash_step = hash_step_for(cfg.seed);
  std::uint64_t hash = 0;
  time_steps(cfg, "health.step", "health", steps, out, [&] { sut->step(); },
             [&](int done) {
               if (done == hash_step)
                 hash = service::state_hash(sut->model().fields());
             });

  std::uint64_t want = 0;
  {
    ScopedSpan s("service.reference_hash", "service");
    want = service::reference_hash(7, 5, hash_step);
  }
  out.check("state_hash@step" + std::to_string(hash_step),
            hash == want, hex(hash) + " vs reference " + hex(want));
  end_of_run_checks(out, *mesh, sut->model().fields(), initial);

  out.diag["health.replans"] = sut->replans();
  out.diag["drift.alarms"] = static_cast<double>(sut->drift().alarms());
  return out;
}

// ---- ranks_l6 ----------------------------------------------------------------------

Outcome run_ranks(const RunConfig& cfg) {
  Outcome out;
  std::shared_ptr<const mpas::mesh::VoronoiMesh> mesh;
  {
    ScopedSpan s("mesh.get_global_mesh", "mesh");
    mesh = mpas::mesh::get_global_mesh(6);
  }
  const auto tc = sw::make_test_case(5);
  std::optional<mpas::comm::DistributedSw> dist;
  {
    ScopedSpan s("partition.DistributedSw", "partition");
    dist.emplace(*mesh, 4, params_for(*tc, *mesh));
  }
  dist->set_fault_injector(nullptr);
  dist->apply_test_case(*tc);
  // A global store holds the gathered state for the checks; the initial
  // conditions also give it the bottom topography the invariants need.
  sw::FieldStore global(*mesh);
  sw::apply_initial_conditions(*tc, *mesh, global);
  const sw::Invariants initial = sw::compute_invariants(*mesh, global);
  auto gather = [&] {
    for (const sw::FieldId f : {sw::FieldId::H, sw::FieldId::U}) {
      const std::vector<mpas::Real> v = dist->gather_global(f);
      std::copy(v.begin(), v.end(), global.get(f).begin());
    }
  };
  {
    ScopedSpan s("comm.initialize", "comm");
    dist->initialize();
  }
  int steps = 0;
  for (; steps < kWarmupSteps; ++steps) {
    ScopedSpan s("comm.run", "comm", static_cast<std::uint64_t>(steps));
    dist->run(1);
  }
  out.setup_s = now_ms() / 1000.0;
  if (cfg.setup_only) return out;

  const int hash_step = hash_step_for(cfg.seed);
  std::uint64_t hash = 0;
  const auto stats0 = dist->comm_stats();
  time_steps(cfg, "comm.run", "comm", steps, out, [&] { dist->run(1); },
             [&](int done) {
               if (done != hash_step) return;
               gather();
               hash = service::state_hash(global);
             });
  const auto stats1 = dist->comm_stats();
  const double timed = static_cast<double>(out.latency_ms.size());

  std::uint64_t want = 0;
  {
    ScopedSpan s("service.reference_hash", "service");
    want = service::reference_hash(6, 5, hash_step);
  }
  out.check("gathered_hash@step" + std::to_string(hash_step),
            hash == want, hex(hash) + " vs reference " + hex(want));
  gather();
  end_of_run_checks(out, *mesh, global, initial);

  if (cfg.trace) {
    out.layer["comm.msgs_per_step"] =
        static_cast<double>(stats1.messages - stats0.messages) / timed;
    out.layer["comm.kb_per_step"] =
        static_cast<double>(stats1.bytes - stats0.bytes) / 1024.0 / timed;
  }
  return out;
}

// ---- sessions_l3l4 ---------------------------------------------------------------

namespace {

service::ServiceOptions service_options(const std::string& ckpt_dir) {
  service::ServiceOptions o;
  o.workers = 2;
  // Capacity far above the offered load: the benchmark measures service
  // latency, not the admission ladder's refusals.
  o.admission.capacity_modeled_s = 1e12;
  o.admission.max_queued_per_tenant = 1u << 20;
  o.sim = mpas::core::SimOptions{mpas::machine::paper_platform()};
  o.slo = mpas::obs::telemetry::SloPolicy{};
  o.flight_dump = mpas::obs::telemetry::FlightDumpPolicy{};
  o.durable.dir = ckpt_dir;
  // Sessions publish after steps < their last, so with at least 4 steps
  // every session writes a generation.
  o.durable.every = 3;
  o.durable.keep = 2;
  return o;
}

service::SessionRequest request_for(const Arrival& a) {
  service::SessionRequest r;
  r.tenant = a.tenant;
  r.mesh_level = a.level;
  r.test_case = a.test_case;
  r.steps = a.steps;
  r.output_every = 0;
  r.allow_degraded = false;
  r.threads = 0;
  return r;
}

struct Tracked {
  std::size_t index = 0;
  std::uint64_t id = 0;
  double submit_start = 0;
  double submit_end = 0;
  double running_seen = -1;
};

}  // namespace

Outcome run_sessions(const RunConfig& cfg, double seconds) {
  Outcome out;
  std::optional<service::SessionManager> mgr;
  {
    ScopedSpan s("service.SessionManager", "service");
    mgr.emplace(service_options(cfg.dir + "/ckpt"));
  }
  mgr->set_tenant_weight("a", 2);
  mgr->set_tenant_weight("b", 1);
  {
    // Warm-up: one session per level builds the meshes and the cost model.
    ScopedSpan s("service.warmup", "service");
    for (const int level : {3, 4}) {
      Arrival a;
      a.level = level;
      mgr->submit(request_for(a));
    }
    mgr->drain(60000);
  }
  out.setup_s = now_ms() / 1000.0;
  if (cfg.setup_only) return out;

  const std::vector<Arrival> schedule =
      make_schedule(cfg.seed, kSessionRate, seconds);
  std::vector<service::SessionResult> results(schedule.size());
  std::vector<double> late_ms, submit_us, queue_ms, run_ms;
  std::vector<double> traced, untraced;
  std::vector<Tracked> open;
  Tracer& tr = tracer();

  const double t0 = now_ms();
  const double t_cap = t0 + (kMaxWindowFactor * seconds + 30.0) * 1000.0;
  std::size_t next = 0;
  while ((next < schedule.size() || !open.empty()) && now_ms() < t_cap) {
    for (; next < schedule.size() && t0 + schedule[next].due_ms <= now_ms();
         ++next) {
      Tracked t;
      t.index = next;
      t.submit_start = now_ms();
      late_ms.push_back(t.submit_start - (t0 + schedule[next].due_ms));
      t.id = mgr->submit(request_for(schedule[next]));
      t.submit_end = now_ms();
      submit_us.push_back((t.submit_end - t.submit_start) * 1000.0);
      open.push_back(t);
    }
    for (std::size_t i = 0; i < open.size();) {
      Tracked& t = open[i];
      service::SessionResult r = mgr->result(t.id);
      const double now = now_ms();
      if (r.state == service::SessionState::Running && t.running_seen < 0)
        t.running_seen = now;
      if (!service::is_terminal(r.state)) {
        ++i;
        continue;
      }
      const double due = t0 + schedule[t.index].due_ms;
      const double run_start = t.running_seen >= 0 ? t.running_seen : now;
      out.latency_ms.push_back(now - due);
      const bool traced_session = cfg.trace && t.index % 2 == 1;
      (traced_session ? traced : untraced).push_back(now - due);
      if (t.running_seen >= 0) queue_ms.push_back(t.running_seen - t.submit_end);
      run_ms.push_back(now - run_start);
      if (traced_session) {
        const int root = tr.add("bench.session", "bench", due, now, -1, t.index);
        tr.add("service.submit", "service", t.submit_start, t.submit_end, root,
               t.index);
        tr.add("service.queue", "service", t.submit_end, run_start, root,
               t.index);
        tr.add("service.run", "service", run_start, now, root, t.index);
      }
      results[t.index] = std::move(r);
      open[i] = open.back();
      open.pop_back();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double window_ms = now_ms() - t0;
  out.peak_rss_mb = peak_rss_mb();
  out.attempted = static_cast<std::int64_t>(schedule.size());
  const service::ServiceStats stats = mgr->stats();
  mgr.reset();

  // Output checks, after the timed window.
  int completed = 0, wrong = 0, not_completed = 0;
  std::string first_unfinished, first_wrong;
  double replans = 0, alarms = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const service::SessionResult& r = results[i];
    replans += r.replans;
    alarms += static_cast<double>(r.drift_alarms);
    if (r.state != service::SessionState::Completed) {
      if (not_completed++ == 0)
        first_unfinished = "; first: session " + std::to_string(i) + " " +
                           service::to_string(r.state) + ": " + r.reason;
      continue;
    }
    const std::uint64_t want = service::reference_hash(
        r.mesh_level_used, r.test_case_used, schedule[i].steps);
    if (r.state_hash == want) {
      ++completed;
    } else if (wrong++ == 0) {
      first_wrong = "; first: session " + std::to_string(i) + " " +
                    hex(r.state_hash) + " vs reference " + hex(want);
    }
  }
  out.checks.push_back({"sessions_completed", not_completed == 0,
                        std::to_string(not_completed) + " of " +
                            std::to_string(schedule.size()) +
                            " not completed" + first_unfinished});
  out.checks.push_back({"session_hashes", wrong == 0,
                        std::to_string(completed) + " bitwise, " +
                            std::to_string(wrong) + " wrong" + first_wrong});
  out.failed = not_completed + wrong;

  out.diag["health.replans"] = replans;
  out.diag["drift.alarms"] = alarms;
  out.diag["gen.late_ms_p99"] =
      late_ms.empty() ? 0 : percentile(late_ms, 99).value;
  if (cfg.trace) {
    record_overhead(out, traced, untraced);
    auto& L = out.layer;
    L["service.submit_us_p50"] = median(submit_us);
    L["service.queue_ms_p50"] = queue_ms.empty() ? 0 : median(queue_ms);
    L["service.queue_ms_p99"] =
        queue_ms.empty() ? 0 : percentile(queue_ms, 99).value;
    L["service.run_ms_p50"] = median(run_ms);
    double busy = 0;
    for (const double r : run_ms) busy += r;
    L["service.busy_frac"] = busy / (2.0 * window_ms);
    L["service.admitted_frac"] =
        stats.submitted == 0 ? 0
                             : static_cast<double>(stats.admitted) /
                                   static_cast<double>(stats.submitted);
    L["gen.late_ms_p99"] = out.diag["gen.late_ms_p99"];
  }
  return out;
}

double measure_session_capacity(const RunConfig& cfg, int sessions) {
  service::SessionManager mgr(service_options(cfg.dir + "/ckpt"));
  mgr.set_tenant_weight("a", 2);
  mgr.set_tenant_weight("b", 1);
  for (const int level : {3, 4}) {  // build the meshes outside the timing
    Arrival a;
    a.level = level;
    mgr.submit(request_for(a));
  }
  mgr.drain(60000);
  const std::vector<Arrival> schedule = make_schedule(cfg.seed, sessions, 1.0);
  mgr.set_paused(true);
  for (const Arrival& a : schedule) mgr.submit(request_for(a));
  const double t0 = now_ms();
  mgr.set_paused(false);
  mgr.drain(600000);
  return static_cast<double>(schedule.size()) / ((now_ms() - t0) / 1000.0);
}

}  // namespace perfbench
