// The mesh-order contract. renumber() is a pure relabelling: every array
// moves to the new labels and every stored index follows. The built
// Hilbert order is canonical (independent of the order it starts from) and
// keeps neighbours close in memory. And a run on a renumbered mesh equals
// the run on the original bit for bit under the inverse permutation —
// serial, pooled, split-scheduled and distributed — because every gather
// kernel sums the same terms in the same slot order; only the irregular
// scatter variants, whose accumulation order follows the entity order,
// are held to a rounding tolerance instead.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <tuple>

#include "comm/distributed.hpp"
#include "core/schedule.hpp"
#include "mesh/mesh_cache.hpp"
#include "mesh/renumber.hpp"
#include "sw/model.hpp"
#include "sw/reference.hpp"
#include "sw/testcases.hpp"
#include "util/error.hpp"

namespace mpas::mesh {
namespace {

std::vector<Index> random_permutation(Index n, std::mt19937& rng) {
  std::vector<Index> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  std::shuffle(p.begin(), p.end(), rng);
  return p;
}

MeshOrder random_order(const VoronoiMesh& m, unsigned seed) {
  std::mt19937 rng(seed);
  MeshOrder o;
  o.cell = random_permutation(m.num_cells, rng);
  o.edge = random_permutation(m.num_edges, rng);
  o.vertex = random_permutation(m.num_vertices, rng);
  return o;
}

void renumber(VoronoiMesh& m, const MeshOrder& o) {
  mesh::renumber(m, o.cell, o.edge, o.vertex);
}

VoronoiMesh renumbered(const VoronoiMesh& m, const MeshOrder& order) {
  VoronoiMesh r = m;
  renumber(r, order);
  return r;
}

const std::vector<Index>& perm_for(const MeshOrder& o, MeshLocation loc) {
  switch (loc) {
    case MeshLocation::Cell: return o.cell;
    case MeshLocation::Edge: return o.edge;
    default: return o.vertex;
  }
}

// ---- renumber moves every array -------------------------------------------

Index mapped(Index v, std::span<const Index> perm) {
  return v == kInvalidIndex ? v : perm[static_cast<std::size_t>(v)];
}

template <class T>
void expect_rows_moved(const char* name, const Array2D<T>& before,
                       const Array2D<T>& after, std::span<const Index> perm,
                       std::span<const Index> values = {}) {
  ASSERT_EQ(before.rows(), after.rows()) << name;
  ASSERT_EQ(before.cols(), after.cols()) << name;
  for (Index i = 0; i < before.rows(); ++i)
    for (Index j = 0; j < before.cols(); ++j) {
      T want = before(i, j);
      if constexpr (std::is_same_v<T, Index>)
        if (!values.empty()) want = mapped(want, values);
      ASSERT_EQ(after(perm[static_cast<std::size_t>(i)], j), want)
          << name << "(" << i << "," << j << ")";
    }
}

template <class Vec>
void expect_moved(const char* name, const Vec& before, const Vec& after,
                  std::span<const Index> perm) {
  ASSERT_EQ(before.size(), after.size()) << name;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const auto& a = after[static_cast<std::size_t>(perm[i])];
    if constexpr (std::is_same_v<typename Vec::value_type, Vec3>) {
      ASSERT_EQ(a.x, before[i].x) << name << "[" << i << "]";
      ASSERT_EQ(a.y, before[i].y) << name << "[" << i << "]";
      ASSERT_EQ(a.z, before[i].z) << name << "[" << i << "]";
    } else {
      ASSERT_EQ(a, before[i]) << name << "[" << i << "]";
    }
  }
}

TEST(MeshOrder, RenumberMovesEveryArrayAndRelabelsEveryIndex) {
  VoronoiMesh m = build_icosahedral_voronoi_mesh(2);
  // A partition-style mesh carries global ids and boundary edges too.
  m.global_cell_id.resize(static_cast<std::size_t>(m.num_cells));
  m.global_edge_id.resize(static_cast<std::size_t>(m.num_edges));
  m.global_vertex_id.resize(static_cast<std::size_t>(m.num_vertices));
  std::iota(m.global_cell_id.begin(), m.global_cell_id.end(), 1000);
  std::iota(m.global_edge_id.begin(), m.global_edge_id.end(), 2000);
  std::iota(m.global_vertex_id.begin(), m.global_vertex_id.end(), 3000);
  m.boundary_edges = {3, 17, 40};
  const MeshOrder o = random_order(m, 11);
  const VoronoiMesh r = renumbered(m, o);
  const std::span<const Index> c = o.cell, e = o.edge, v = o.vertex;

  expect_moved("x_cell", m.x_cell, r.x_cell, c);
  expect_moved("n_edges_on_cell", m.n_edges_on_cell, r.n_edges_on_cell, c);
  expect_rows_moved("edges_on_cell", m.edges_on_cell, r.edges_on_cell, c, e);
  expect_rows_moved("cells_on_cell", m.cells_on_cell, r.cells_on_cell, c, c);
  expect_rows_moved("vertices_on_cell", m.vertices_on_cell, r.vertices_on_cell, c, v);
  expect_rows_moved("edge_sign_on_cell", m.edge_sign_on_cell, r.edge_sign_on_cell, c);
  expect_rows_moved("kite_areas_on_cell", m.kite_areas_on_cell, r.kite_areas_on_cell, c);
  expect_moved("area_cell", m.area_cell, r.area_cell, c);
  expect_moved("f_cell", m.f_cell, r.f_cell, c);
  expect_moved("lat_cell", m.lat_cell, r.lat_cell, c);
  expect_moved("lon_cell", m.lon_cell, r.lon_cell, c);
  expect_moved("global_cell_id", m.global_cell_id, r.global_cell_id, c);

  expect_moved("x_edge", m.x_edge, r.x_edge, e);
  expect_rows_moved("cells_on_edge", m.cells_on_edge, r.cells_on_edge, e, c);
  expect_rows_moved("vertices_on_edge", m.vertices_on_edge, r.vertices_on_edge, e, v);
  expect_moved("n_edges_on_edge", m.n_edges_on_edge, r.n_edges_on_edge, e);
  expect_rows_moved("edges_on_edge", m.edges_on_edge, r.edges_on_edge, e, e);
  expect_rows_moved("weights_on_edge", m.weights_on_edge, r.weights_on_edge, e);
  expect_moved("dc_edge", m.dc_edge, r.dc_edge, e);
  expect_moved("dv_edge", m.dv_edge, r.dv_edge, e);
  expect_moved("f_edge", m.f_edge, r.f_edge, e);
  expect_moved("lat_edge", m.lat_edge, r.lat_edge, e);
  expect_moved("lon_edge", m.lon_edge, r.lon_edge, e);
  expect_moved("edge_normal", m.edge_normal, r.edge_normal, e);
  expect_moved("edge_tangent", m.edge_tangent, r.edge_tangent, e);
  expect_moved("global_edge_id", m.global_edge_id, r.global_edge_id, e);

  expect_moved("x_vertex", m.x_vertex, r.x_vertex, v);
  expect_rows_moved("cells_on_vertex", m.cells_on_vertex, r.cells_on_vertex, v, c);
  expect_rows_moved("edges_on_vertex", m.edges_on_vertex, r.edges_on_vertex, v, e);
  expect_rows_moved("edge_sign_on_vertex", m.edge_sign_on_vertex, r.edge_sign_on_vertex, v);
  expect_rows_moved("kite_areas_on_vertex", m.kite_areas_on_vertex, r.kite_areas_on_vertex, v);
  expect_moved("area_triangle", m.area_triangle, r.area_triangle, v);
  expect_moved("f_vertex", m.f_vertex, r.f_vertex, v);
  expect_moved("lat_vertex", m.lat_vertex, r.lat_vertex, v);
  expect_moved("lon_vertex", m.lon_vertex, r.lon_vertex, v);
  expect_moved("global_vertex_id", m.global_vertex_id, r.global_vertex_id, v);

  std::vector<Index> boundary;
  for (const Index b : m.boundary_edges) boundary.push_back(e[static_cast<std::size_t>(b)]);
  std::sort(boundary.begin(), boundary.end());
  EXPECT_EQ(r.boundary_edges, boundary);
  EXPECT_EQ(r.mesh_data_bytes(), m.mesh_data_bytes());
  r.validate();
}

TEST(MeshOrder, RenumberRejectsANonPermutationBeforeMovingAnything) {
  const VoronoiMesh before = build_icosahedral_voronoi_mesh(1);
  VoronoiMesh m = before;
  MeshOrder o = random_order(m, 3);
  o.vertex[5] = o.vertex[6];  // two vertices onto one label
  EXPECT_THROW(renumber(m, o), Error);
  EXPECT_EQ(m.edges_on_cell, before.edges_on_cell);
  EXPECT_EQ(m.cells_on_vertex, before.cells_on_vertex);
  o = random_order(m, 3);
  o.cell.pop_back();
  EXPECT_THROW(renumber(m, o), Error);
  o = random_order(m, 3);
  o.edge[0] = m.num_edges;  // out of range
  EXPECT_THROW(renumber(m, o), Error);
}

// ---- the built order ---------------------------------------------------------

TEST(MeshOrder, HilbertOrderIsCanonical) {
  // Whatever order the entities start in, the Hilbert order of the same
  // mesh is the same mesh: the built one.
  const VoronoiMesh built = build_icosahedral_voronoi_mesh(3);
  VoronoiMesh m = renumbered(built, random_order(built, 5));
  renumber(m, hilbert_order(m));
  EXPECT_EQ(m.edges_on_cell, built.edges_on_cell);
  EXPECT_EQ(m.cells_on_edge, built.cells_on_edge);
  EXPECT_EQ(m.vertices_on_edge, built.vertices_on_edge);
  EXPECT_EQ(m.edges_on_edge, built.edges_on_edge);
  EXPECT_EQ(m.weights_on_edge, built.weights_on_edge);
  EXPECT_EQ(m.cells_on_vertex, built.cells_on_vertex);
  EXPECT_EQ(m.area_cell, built.area_cell);
  // The built order is a fixed point.
  const MeshOrder again = hilbert_order(built);
  for (Index c = 0; c < built.num_cells; ++c)
    ASSERT_EQ(again.cell[static_cast<std::size_t>(c)], c);
  for (Index e = 0; e < built.num_edges; ++e)
    ASSERT_EQ(again.edge[static_cast<std::size_t>(e)], e);
  for (Index v = 0; v < built.num_vertices; ++v)
    ASSERT_EQ(again.vertex[static_cast<std::size_t>(v)], v);
}

TEST(MeshOrder, CubeHilbertKeyKeepsNearbyPointsClose) {
  // Points in one face quadrant share the key's top bits; the six faces
  // take disjoint key ranges.
  const std::uint64_t face = std::uint64_t{1} << 32;
  EXPECT_EQ(cube_hilbert_key(Vec3{1, 0, 0}) / face, 0u);
  EXPECT_EQ(cube_hilbert_key(Vec3{0, 1, 0}) / face, 1u);
  EXPECT_EQ(cube_hilbert_key(Vec3{-1, 0, 0}) / face, 2u);
  EXPECT_EQ(cube_hilbert_key(Vec3{0, -1, 0}) / face, 3u);
  EXPECT_EQ(cube_hilbert_key(Vec3{0, 0, 1}) / face, 4u);
  EXPECT_EQ(cube_hilbert_key(Vec3{0, 0, -1}) / face, 5u);
  const std::uint64_t a = cube_hilbert_key(Vec3{1, 0.50, 0.50}.normalized());
  const std::uint64_t b = cube_hilbert_key(Vec3{1, 0.51, 0.50}.normalized());
  const std::uint64_t far = cube_hilbert_key(Vec3{1, -0.5, -0.5}.normalized());
  EXPECT_LT(a > b ? a - b : b - a, face / 64);
  EXPECT_GT(a > far ? a - far : far - a, face / 64);
}

/// Share of neighbour indices more than 4096 entries from where a
/// streaming loop over cells stands: for cell->cell the cell itself, for
/// cell->edge the cell's proportional position in the edge array (the
/// definition of the benchmark's mesh.far_cell_* metrics).
std::pair<double, double> far_neighbour_shares(const VoronoiMesh& m) {
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
  return {static_cast<double>(far_cell) / static_cast<double>(total),
          static_cast<double>(far_edge) / static_cast<double>(total)};
}

TEST(MeshOrder, Level6MeshKeepsNeighboursNear) {
  // In the triangulation's order half the cell->cell and nearly all
  // cell->edge loads landed far away.
  const auto m = get_global_mesh(6);
  const auto [far_cell, far_edge] = far_neighbour_shares(*m);
  EXPECT_LT(far_cell, 0.05);
  EXPECT_LT(far_edge, 0.05);
}

// ---- the inverse-permutation oracle --------------------------------------------

using sw::FieldId;

sw::SwParams params_for(const VoronoiMesh& m, int tc) {
  sw::SwParams p;
  p.dt = sw::suggested_time_step(*sw::make_test_case(tc), m, 0.4);
  return p;
}

template <class Model>
void start(Model& model, const VoronoiMesh& m, int tc) {
  sw::apply_initial_conditions(*sw::make_test_case(tc), m, model.fields());
  model.initialize();
}

constexpr int kSteps = 4;

void expect_field_permuted(const sw::FieldStore& original,
                           const sw::FieldStore& renum, FieldId id,
                           const MeshOrder& o, const char* run) {
  const auto a = original.get(id);
  const auto b = renum.get(id);
  const auto& perm = perm_for(o, sw::field_info(id).location);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(b[static_cast<std::size_t>(perm[i])], a[i])
        << run << ": " << sw::field_info(id).name << "[" << i << "]";
}

void expect_state_permuted(const sw::FieldStore& original,
                           const sw::FieldStore& renum, const MeshOrder& o,
                           const char* run) {
  for (const FieldId id : {FieldId::H, FieldId::U, FieldId::VTangent,
                           FieldId::Vorticity, FieldId::PvEdge,
                           FieldId::PvCell, FieldId::ReconZonal})
    expect_field_permuted(original, renum, id, o, run);
}

class RenumberOracle
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(RenumberOracle, RunsAreBitwiseEqualUnderTheInversePermutation) {
  const auto [level, tc, sfc] = GetParam();
  // Random: the built mesh and a random relabelling of it. SFC: a random
  // relabelling and the Hilbert order that build_voronoi_mesh gives it.
  const VoronoiMesh built = build_icosahedral_voronoi_mesh(level);
  const VoronoiMesh original =
      sfc ? renumbered(built, random_order(built, 17)) : built;
  const MeshOrder o = sfc ? hilbert_order(original)
                          : random_order(original, 23 + level * 7 + tc);
  const VoronoiMesh renum = renumbered(original, o);
  const sw::SwParams p = params_for(original, tc);

  sw::SwModel ref(original, p);
  start(ref, original, tc);
  ref.run(kSteps);

  {
    sw::SwModel model(renum, p);
    start(model, renum, tc);
    model.run(kSteps);
    expect_state_permuted(ref.fields(), model.fields(), o, "serial");
  }
  {
    exec::ThreadPool pool(2);
    sw::SwModel model(renum, p);
    model.set_pool(&pool);
    start(model, renum, tc);
    model.run(kSteps);
    expect_state_permuted(ref.fields(), model.fields(), o, "pooled");
  }
  {
    sw::SwModel model(renum, p);
    core::SimOptions opts;
    opts.platform = machine::paper_platform();
    const core::MeshSizes sizes{renum.num_cells, renum.num_edges,
                                renum.num_vertices};
    const auto& g = model.graphs();
    model.set_schedules(core::make_pattern_level_schedule(g.setup, sizes, opts),
                        core::make_pattern_level_schedule(g.early, sizes, opts),
                        core::make_pattern_level_schedule(g.final, sizes, opts));
    start(model, renum, tc);
    model.run(kSteps);
    expect_state_permuted(ref.fields(), model.fields(), o, "split");
  }
  {
    comm::DistributedSw dist(renum, 3, p);
    dist.apply_test_case(*sw::make_test_case(tc));
    dist.initialize();
    dist.run(kSteps);
    for (const FieldId id : {FieldId::H, FieldId::U}) {
      const std::vector<Real> got = dist.gather_global(id);
      const auto want = ref.fields().get(id);
      const auto& perm = perm_for(o, sw::field_info(id).location);
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[static_cast<std::size_t>(perm[i])], want[i])
            << "distributed: " << sw::field_info(id).name << "[" << i << "]";
    }
  }
  {
    // The irregular scatters accumulate in entity order: equal to
    // rounding, within the tolerance the loop variants are held to.
    sw::ReferenceIntegrator a(original, p, sw::LoopVariant::Irregular);
    sw::ReferenceIntegrator b(renum, p, sw::LoopVariant::Irregular);
    start(a, original, tc);
    start(b, renum, tc);
    a.run(kSteps);
    b.run(kSteps);
    const auto ha = a.fields().get(FieldId::H);
    const auto hb = b.fields().get(FieldId::H);
    Real scale = 0, diff = 0;
    for (std::size_t i = 0; i < ha.size(); ++i) {
      scale = std::max(scale, std::abs(ha[i]));
      diff = std::max(diff, std::abs(hb[static_cast<std::size_t>(o.cell[i])] - ha[i]));
    }
    EXPECT_LT(diff / scale, 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LevelsCasesOrders, RenumberOracle,
    ::testing::Combine(::testing::Values(3, 4), ::testing::Values(2, 5, 6),
                       ::testing::Bool()),
    [](const auto& info) {
      return "L" + std::to_string(std::get<0>(info.param)) + "_TC" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_sfc" : "_random");
    });

}  // namespace
}  // namespace mpas::mesh
