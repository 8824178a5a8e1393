// Per-layer probes of the traced run. Each probe calls one module's public
// functions from outside, inside a span named after that module, and turns
// the timings into the per-layer metrics listed in BENCHMARK.json.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/distributed.hpp"
#include "exec/thread_pool.hpp"
#include "mesh/mesh_cache.hpp"
#include "mesh/mesh_io.hpp"
#include "resilience/durable/store.hpp"
#include "resilience/health/hybrid.hpp"
#include "service/journal.hpp"
#include "sw/kernels.hpp"
#include "sw/model.hpp"
#include "sw/reference.hpp"
#include "sw/state_codec.hpp"
#include "sw/testcases.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sw = mpas::sw;
namespace mesh_ns = mpas::mesh;
using mpas::Index;
using mpas::Real;

namespace {

sw::SwParams tc5_params(const mesh_ns::VoronoiMesh& m) {
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, m, 0.4);
  return params;
}

/// Median wall time of `reps` calls after one untimed warm-up call, in ms.
double time_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_ms();
    fn();
    t.push_back(now_ms() - t0);
  }
  return median(t);
}

template <class Model>
void start_tc5(Model& model, const mesh_ns::VoronoiMesh& m) {
  sw::apply_initial_conditions(*sw::make_test_case(5), m, model.fields());
  model.initialize();
}

// ---- mesh ------------------------------------------------------------------------

/// Share of neighbour indices more than 4096 entries from where a streaming
/// loop over cells stands: for cell->cell the cell itself, for cell->edge
/// the cell's proportional position in the edge array. Exact counts.
void mesh_locality(const mesh_ns::VoronoiMesh& m, Outcome::Metrics& L) {
  constexpr long kFar = 4096;
  long far_edge = 0, far_cell = 0, total = 0;
  const double edges_per_cell =
      static_cast<double>(m.num_edges) / static_cast<double>(m.num_cells);
  for (Index c = 0; c < m.num_cells; ++c) {
    const long edge_pos = std::lround(c * edges_per_cell);
    for (Index j = 0; j < m.n_edges_on_cell[c]; ++j) {
      far_edge += std::abs(m.edges_on_cell(c, j) - edge_pos) > kFar;
      far_cell += std::abs(static_cast<long>(m.cells_on_cell(c, j)) - c) > kFar;
      ++total;
    }
  }
  L["mesh.far_cell_edge_frac"] = static_cast<double>(far_edge) / total;
  L["mesh.far_cell_cell_frac"] = static_cast<double>(far_cell) / total;
}

// ---- sw kernels ----------------------------------------------------------------

struct KernelProbe {
  const char* name;
  Index n;
  mpas::machine::KernelCost cost;
  std::function<void(Index, Index)> fn;
};

std::vector<KernelProbe> kernel_probes(const sw::SwContext& ctx) {
  using sw::FieldId;
  namespace cost = sw::cost;
  const auto bf = sw::LoopVariant::BranchFree;
  const auto& m = ctx.mesh;
  const Index nc = m.num_cells, ne = m.num_edges, nv = m.num_vertices;
  const auto H = FieldId::H, U = FieldId::U;
  const sw::SwContext& c = ctx;
  // Costs follow the node costs SwModel's graphs assign to each kernel.
  return {
      {"diag_h_edge", ne, cost::h_edge(), [&c, H](Index b, Index e) { sw::diag_h_edge(c, H, b, e); }},
      {"diag_ke", nc, cost::ke(bf), [&c, U, bf](Index b, Index e) { sw::diag_ke(c, U, b, e, bf); }},
      {"diag_vorticity", nv, cost::vorticity(bf), [&c, U, bf](Index b, Index e) { sw::diag_vorticity(c, U, b, e, bf); }},
      {"diag_divergence", nc, cost::divergence(bf), [&c, U, bf](Index b, Index e) { sw::diag_divergence(c, U, b, e, bf); }},
      {"diag_v_tangent", ne, cost::v_tangent(), [&c, U](Index b, Index e) { sw::diag_v_tangent(c, U, b, e); }},
      {"diag_h_pv_vertex", nv, cost::h_pv_vertex(), [&c, H](Index b, Index e) { sw::diag_h_pv_vertex(c, H, b, e); }},
      {"diag_pv_cell", nc, cost::pv_cell(), [&c](Index b, Index e) { sw::diag_pv_cell(c, b, e); }},
      {"diag_pv_edge", ne, cost::pv_edge(), [&c, U](Index b, Index e) { sw::diag_pv_edge(c, U, b, e); }},
      {"tend_thickness", nc, cost::tend_h(bf), [&c, U, bf](Index b, Index e) { sw::tend_thickness(c, U, b, e, bf); }},
      {"tend_momentum", ne, cost::tend_u(), [&c, H, U](Index b, Index e) { sw::tend_momentum(c, H, U, b, e); }},
      {"tend_h_laplacian", nc, cost::pv_cell(), [&c, H](Index b, Index e) { sw::tend_h_laplacian(c, H, b, e); }},
      {"tend_h_add_del2", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::tend_h_add_del2(c, b, e); }},
      {"tend_u_add_del2", ne, cost::pv_edge(), [&c](Index b, Index e) { sw::tend_u_add_del2(c, b, e); }},
      {"enforce_boundary_edge", ne, cost::local_axpy(), [&c](Index b, Index e) { sw::enforce_boundary_edge(c, b, e); }},
      {"next_substep_h", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::next_substep_h(c, b, e); }},
      {"next_substep_u", ne, cost::local_axpy(), [&c](Index b, Index e) { sw::next_substep_u(c, b, e); }},
      {"seed_provis_h", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::seed_provis_h(c, b, e); }},
      {"seed_provis_u", ne, cost::local_axpy(), [&c](Index b, Index e) { sw::seed_provis_u(c, b, e); }},
      {"init_accum_h", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::init_accum_h(c, b, e); }},
      {"init_accum_u", ne, cost::local_axpy(), [&c](Index b, Index e) { sw::init_accum_u(c, b, e); }},
      {"accumulate_h", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::accumulate_h(c, b, e); }},
      {"accumulate_u", ne, cost::local_axpy(), [&c](Index b, Index e) { sw::accumulate_u(c, b, e); }},
      {"commit_h", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::commit_h(c, b, e); }},
      {"commit_u", ne, cost::local_axpy(), [&c](Index b, Index e) { sw::commit_u(c, b, e); }},
      {"tracer_ratio", nc, cost::local_axpy(), [&c, H](Index b, Index e) { sw::tracer_ratio(c, FieldId::TracerQ, H, b, e); }},
      {"tracer_edge_value", ne, cost::h_edge(), [&c](Index b, Index e) { sw::tracer_edge_value(c, b, e); }},
      {"tend_tracer", nc, cost::tend_h(bf), [&c, U, bf](Index b, Index e) { sw::tend_tracer(c, U, b, e, bf); }},
      {"next_substep_tracer", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::next_substep_tracer(c, b, e); }},
      {"seed_provis_tracer", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::seed_provis_tracer(c, b, e); }},
      {"init_accum_tracer", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::init_accum_tracer(c, b, e); }},
      {"accumulate_tracer", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::accumulate_tracer(c, b, e); }},
      {"commit_tracer", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::commit_tracer(c, b, e); }},
      {"reconstruct_vector", nc, cost::reconstruct(bf), [&c, U, bf](Index b, Index e) { sw::reconstruct_vector(c, U, b, e, bf); }},
      {"reconstruct_horizontal", nc, cost::local_axpy(), [&c](Index b, Index e) { sw::reconstruct_horizontal(c, b, e); }},
  };
}

void probe_kernels(const mesh_ns::VoronoiMesh& m, Outcome::Metrics& L) {
  ScopedSpan span("sw.kernels", "sw");
  const sw::SwParams params = tc5_params(m);
  sw::SwModel model(m, params);
  start_tc5(model, m);
  sw::apply_cosine_bell_tracer(m, model.fields(), 0.0, 0.0, 0.5);
  const sw::SwContext ctx{m, model.fields(), params, 0.5 * params.dt,
                          params.dt / 6.0};
  for (const KernelProbe& k : kernel_probes(ctx)) {
    ScopedSpan s(k.name, "sw");
    const double ms = time_ms(5, [&] { k.fn(0, k.n); });
    const std::string key = std::string("sw.kernel.") + k.name;
    const double bytes = (k.cost.bytes_streamed + k.cost.bytes_gathered +
                          k.cost.bytes_written) *
                         static_cast<double>(k.n);
    L[key + ".ms"] = ms;
    L[key + ".gbps_computed"] = bytes / (ms * 1e-3) / 1e9;
  }
}

// ---- whole steps, pool, health ---------------------------------------------

void probe_steps(const mesh_ns::VoronoiMesh& m7, Outcome& out) {
  auto& L = out.layer;
  const sw::SwParams p7 = tc5_params(m7);
  double serial_ms = 0;
  {
    ScopedSpan s("sw.SwModel::step", "sw");
    sw::SwModel model(m7, p7);
    start_tc5(model, m7);
    serial_ms = time_ms(3, [&] { model.step(); });
    L["sw.model.step_ms"] = serial_ms;
  }
  {
    ScopedSpan s("sw.ReferenceIntegrator::step", "sw");
    sw::ReferenceIntegrator ref(m7, p7, sw::LoopVariant::Irregular);
    start_tc5(ref, m7);
    L["sw.reference.step_ms"] = time_ms(3, [&] { ref.step(); });
  }
  {
    ScopedSpan s("sw.SwModel::step(L4)", "sw");
    const auto m4 = mesh_ns::get_global_mesh(4);
    sw::SwModel model(*m4, tc5_params(*m4));
    start_tc5(model, *m4);
    L["sw.model_l4.step_ms"] = time_ms(20, [&] { model.step(); });
  }
  {
    mpas::exec::ThreadPool pool(2);
    {
      ScopedSpan s("exec.parallel_for", "exec");
      std::vector<double> batches;
      constexpr int kCalls = 1000;
      for (int b = 0; b < 5; ++b) {
        const double t0 = now_ms();
        for (int i = 0; i < kCalls; ++i) pool.parallel_for(2, [](Index, Index) {});
        batches.push_back((now_ms() - t0) * 1000.0 / kCalls);
      }
      L["exec.pool.region_us"] = median(batches);
    }
    ScopedSpan s("sw.SwModel::step(pool)", "sw");
    sw::SwModel model(m7, p7);
    model.set_pool(&pool);
    start_tc5(model, m7);
    model.step();
    const std::uint64_t r0 = pool.regions_opened();
    const double pool_ms = time_ms(3, [&] { model.step(); });
    // time_ms runs one warm-up call plus the three timed ones.
    L["exec.pool.regions_per_step"] =
        static_cast<double>(pool.regions_opened() - r0) / 4.0;
    L["exec.pool.speedup"] = serial_ms / pool_ms;
  }
}

void probe_health(const mesh_ns::VoronoiMesh& m7, Outcome& out) {
  auto& L = out.layer;
  namespace health = mpas::resilience::health;
  health::SelfHealingHybrid::Options opts;
  opts.drift = mpas::obs::profiling::DriftPolicy{};
  opts.threads = 0;
  opts.metric_scope = "perfbench.probe.";
  auto init = [&](const mesh_ns::VoronoiMesh& m) {
    auto sut = std::make_unique<health::SelfHealingHybrid>(m, tc5_params(m), opts);
    sw::apply_initial_conditions(*sw::make_test_case(5), m, sut->model().fields());
    sut->initialize();
    return sut;
  };
  {
    ScopedSpan s("health.init(L4)", "health");
    const auto m4 = mesh_ns::get_global_mesh(4);
    // Instances are kept so that their destruction stays out of the timing.
    std::vector<std::unique_ptr<health::SelfHealingHybrid>> keep;
    L["health.init_l4_ms"] = time_ms(5, [&] { keep.push_back(init(*m4)); });
  }
  ScopedSpan s("health.init+step", "health");
  const double t0 = now_ms();
  auto sut = init(m7);
  L["health.init_ms"] = now_ms() - t0;
  // Same threading for both (inline), interleaved so drift cancels.
  sw::SwModel model(m7, tc5_params(m7));
  start_tc5(model, m7);
  std::vector<double> hybrid_ms, model_ms;
  for (int i = 0; i < 5; ++i) {
    double t = now_ms();
    sut->step();
    if (i > 0) hybrid_ms.push_back(now_ms() - t);
    t = now_ms();
    model.step();
    if (i > 0) model_ms.push_back(now_ms() - t);
  }
  L["health.step_overhead_ms"] = median(hybrid_ms) - median(model_ms);
  out.diag["health.replans"] += sut->replans();
  out.diag["drift.alarms"] += static_cast<double>(sut->drift().alarms());
}

// ---- durable, journal ----------------------------------------------------------

void probe_durable(const std::string& dir, Outcome::Metrics& L) {
  const auto m4 = mesh_ns::get_global_mesh(4);
  sw::SwModel model(*m4, tc5_params(*m4));
  start_tc5(model, *m4);
  {
    ScopedSpan s("durable.publish", "durable");
    mpas::resilience::durable::DurableOptions opts;
    opts.dir = dir + "/probe_ckpt";
    opts.keep = 2;
    mpas::resilience::durable::DurableStore store(opts);
    std::int64_t step = 0;
    L["durable.publish_ms"] = time_ms(10, [&] {
      store.publish(sw::snapshot_prognostic(model.fields(), ++step));
    });
  }
  {
    ScopedSpan s("service.journal_append", "service");
    mpas::service::SessionJournal journal;
    journal.open(dir + "/probe_journal.jsonl");
    constexpr int kAppends = 500;
    L["service.journal_append_us"] =
        time_ms(5, [&] {
          for (int i = 0; i < kAppends; ++i)
            journal.append("progress", "a", 1, "\"step\":4");
        }) *
        1000.0 / kAppends;
    journal.close();
  }
}

// ---- partition, comm -----------------------------------------------------------

void probe_ranks(Outcome::Metrics& L) {
  const auto m6 = mesh_ns::get_global_mesh(6);
  const sw::SwParams p6 = tc5_params(*m6);
  std::optional<mpas::comm::DistributedSw> dist;
  {
    ScopedSpan s("partition.DistributedSw", "partition");
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
      dist.reset();
      const double t0 = now_ms();
      dist.emplace(*m6, 4, p6);
      t.push_back(now_ms() - t0);
    }
    L["partition.build_ms"] = median(t);
  }
  double halo_cells = 0, halo_edges = 0, max_owned = 0, sum_owned = 0;
  for (int r = 0; r < dist->num_ranks(); ++r) {
    halo_cells += static_cast<double>(dist->plan(r).recv_cell_count());
    halo_edges += static_cast<double>(dist->plan(r).recv_edge_count());
    const double owned = dist->local_mesh(r).num_owned_cells;
    max_owned = std::max(max_owned, owned);
    sum_owned += owned;
  }
  L["partition.halo_cells"] = halo_cells;
  L["partition.halo_edges"] = halo_edges;
  L["partition.imbalance"] = max_owned / (sum_owned / dist->num_ranks()) - 1.0;

  ScopedSpan s("comm.run", "comm");
  dist->set_fault_injector(nullptr);
  dist->apply_test_case(*sw::make_test_case(5));
  dist->initialize();
  sw::SwModel serial(*m6, p6);
  start_tc5(serial, *m6);
  dist->run(1);
  serial.step();
  const auto stats0 = dist->comm_stats();
  std::vector<double> ranks_ms, serial_ms;
  constexpr int kSteps = 6;
  for (int i = 0; i < kSteps; ++i) {
    double t = now_ms();
    dist->run(1);
    ranks_ms.push_back(now_ms() - t);
    t = now_ms();
    serial.step();
    serial_ms.push_back(now_ms() - t);
  }
  const auto stats1 = dist->comm_stats();
  L.emplace("comm.msgs_per_step",
            static_cast<double>(stats1.messages - stats0.messages) / kSteps);
  L.emplace("comm.kb_per_step",
            static_cast<double>(stats1.bytes - stats0.bytes) / 1024.0 / kSteps);
  L["comm.overhead_frac"] = median(ranks_ms) / median(serial_ms) - 1.0;
}

// ---- counter-free roofline inputs ------------------------------------------

/// Size of the last-level cache the CPU reports, in bytes (0 if none).
double llc_bytes() {
  long size = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (size <= 0) size = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return size > 0 ? static_cast<double>(size) : 0.0;
}

void probe_roofline(Outcome::Metrics& L) {
  ScopedSpan span("probe.roofline", "probe");
  const double llc = llc_bytes();
  // Each array at least four times the last-level cache (and 64 MiB).
  const double array_bytes = std::max(4.0 * llc, 64.0 * 1024 * 1024);
  const auto n = static_cast<std::size_t>(array_bytes / sizeof(double));
  L["probe.llc_mib"] = llc / (1024.0 * 1024.0);
  L["probe.array_mib"] = static_cast<double>(n * sizeof(double)) / (1024.0 * 1024.0);
  {
    ScopedSpan s("probe.triad", "probe");
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double scalar = 3.0;
    std::vector<double> gbps;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = now_ms();
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scalar * c[i];
      const double s = (now_ms() - t0) / 1000.0;
      gbps.push_back(3.0 * sizeof(double) * static_cast<double>(n) / s / 1e9);
    }
    if (a[n / 2] != 7.0) throw std::runtime_error("triad probe miscomputed");
    L["probe.triad_gbps"] = median(gbps);
  }
  {
    ScopedSpan s("probe.gather", "probe");
    // A single cycle with a stride of about 0.618 n: each load depends on
    // the previous one and lands on a different page.
    std::size_t stride = static_cast<std::size_t>(0.6180339887 * n) | 1;
    while (std::gcd(stride, n) != 1) stride += 2;
    std::vector<std::uint64_t> next(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = (i + stride) % n;
    constexpr std::size_t kLoads = 4'000'000;
    std::uint64_t at = 0;
    const double t0 = now_ms();
    for (std::size_t i = 0; i < kLoads; ++i) at = next[at];
    const double ms = now_ms() - t0;
    if (at >= n) throw std::runtime_error("gather probe left the array");
    L["probe.gather_ns"] = ms * 1e6 / static_cast<double>(kLoads);
  }
}

}  // namespace

void run_probes(const RunConfig& cfg, const std::string& workload,
                Outcome& out) {
  auto& L = out.layer;
  std::optional<mesh_ns::VoronoiMesh> m7;
  {
    ScopedSpan s("mesh.build", "mesh");
    const double t0 = now_ms();
    m7.emplace(mesh_ns::build_icosahedral_voronoi_mesh(7));
    L["mesh.build_ms"] = now_ms() - t0;
  }
  {
    ScopedSpan s("mesh.save_mesh", "mesh");
    const std::string path = cfg.dir + "/probe_level7.mpasmesh";
    const double t0 = now_ms();
    mesh_ns::save_mesh(*m7, path);
    L["mesh.cache_save_ms"] = now_ms() - t0;
    std::filesystem::remove(path);
  }
  mesh_locality(*m7, L);
  probe_kernels(*m7, L);
  probe_steps(*m7, out);
  probe_health(*m7, out);
  m7.reset();
  probe_durable(cfg.dir, L);
  probe_ranks(L);
  if (workload != "sessions_l3l4") {
    // The service metrics come from a short run of the session mix.
    RunConfig mini = cfg;
    mini.trace = true;
    Outcome sessions = run_sessions(mini, 2.0);
    for (const auto& [k, v] : sessions.layer)
      if (k.rfind("service.", 0) == 0 || k.rfind("gen.", 0) == 0) L[k] = v;
    out.diag["health.replans"] += sessions.diag["health.replans"];
    out.diag["drift.alarms"] += sessions.diag["drift.alarms"];
  }
  probe_roofline(L);
  L["health.replans"] = out.diag["health.replans"];
  L["drift.alarms"] = out.diag["drift.alarms"];
  const auto self = tracer().self_ms_by_layer();
  for (const char* layer : {"bench", "mesh", "sw", "exec", "health", "durable",
                            "service", "partition", "comm", "probe"}) {
    const auto it = self.find(layer);
    L[std::string("self_ms.") + layer] = it == self.end() ? 0.0 : it->second;
  }
}

double host_speed_probe_ms() {
  // Volatile inputs and a checked result keep the compiler from folding it.
  volatile double factor = 0.9999999, offset = 1e-7;
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    const double a = factor, b = offset;
    const double t0 = now_ms();
    double x = 1.0;
    for (int i = 0; i < 20'000'000; ++i) x = x * a + b;
    t.push_back(now_ms() - t0);
    if (!std::isfinite(x)) throw std::runtime_error("host probe overflowed");
  }
  return median(t);
}

}  // namespace perfbench
