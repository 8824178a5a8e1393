// Kernel-level tests of the shallow-water operators: loop-variant
// equivalence (Algorithms 2/3/4), operator accuracy against analytic
// fields, and mimetic identities.
#include <gtest/gtest.h>

#include <cmath>

#include "mesh/mesh_cache.hpp"
#include "sw/kernels.hpp"
#include "sw/testcases.hpp"

namespace mpas::sw {
namespace {

class SwKernelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mesh_ = new mesh::VoronoiMesh(mesh::build_icosahedral_voronoi_mesh(4));
  }
  static void TearDownTestSuite() { delete mesh_; mesh_ = nullptr; }

  SwKernelTest() : fields(*mesh_) {
    params.dt = 100.0;
    const auto tc = make_test_case(6);  // Rossby-Haurwitz: rich structure
    apply_initial_conditions(*tc, *mesh_, fields);
  }

  SwContext ctx() { return SwContext{*mesh_, fields, params, 0, 0}; }

  static mesh::VoronoiMesh* mesh_;
  FieldStore fields;
  SwParams params;
};

mesh::VoronoiMesh* SwKernelTest::mesh_ = nullptr;

Real max_abs_diff(std::span<const Real> a, std::span<const Real> b) {
  Real m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

std::vector<Real> snapshot(std::span<const Real> s) {
  return {s.begin(), s.end()};
}

TEST_F(SwKernelTest, DivergenceVariantsAgree) {
  auto c = ctx();
  diag_divergence(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::BranchFree);
  const auto bf = snapshot(fields.get(FieldId::Divergence));
  diag_divergence(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::Refactored);
  const auto rf = snapshot(fields.get(FieldId::Divergence));
  diag_divergence(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::Irregular);
  const auto ir = snapshot(fields.get(FieldId::Divergence));

  // Refactored and branch-free are the same arithmetic: bitwise equal.
  EXPECT_EQ(max_abs_diff(bf, rf), 0.0);
  // The irregular scatter accumulates in a different order: equal to
  // rounding only.
  Real scale = 0;
  for (Real v : bf) scale = std::max(scale, std::abs(v));
  EXPECT_LT(max_abs_diff(bf, ir), 1e-12 * std::max<Real>(scale, 1e-30) +
                                      1e-24);
}

TEST_F(SwKernelTest, VorticityVariantsAgree) {
  auto c = ctx();
  diag_vorticity(c, FieldId::U, 0, mesh_->num_vertices, LoopVariant::BranchFree);
  const auto bf = snapshot(fields.get(FieldId::Vorticity));
  diag_vorticity(c, FieldId::U, 0, mesh_->num_vertices, LoopVariant::Refactored);
  const auto rf = snapshot(fields.get(FieldId::Vorticity));
  diag_vorticity(c, FieldId::U, 0, mesh_->num_vertices, LoopVariant::Irregular);
  const auto ir = snapshot(fields.get(FieldId::Vorticity));
  EXPECT_EQ(max_abs_diff(bf, rf), 0.0);
  Real scale = 0;
  for (Real v : bf) scale = std::max(scale, std::abs(v));
  EXPECT_LT(max_abs_diff(bf, ir), 1e-12 * scale);
}

TEST_F(SwKernelTest, KeAndTendHVariantsAgree) {
  auto c = ctx();
  diag_h_edge(c, FieldId::H, 0, mesh_->num_edges);

  diag_ke(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::BranchFree);
  const auto ke_bf = snapshot(fields.get(FieldId::Ke));
  diag_ke(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::Irregular);
  const auto ke_ir = snapshot(fields.get(FieldId::Ke));
  Real ke_scale = 0;
  for (Real v : ke_bf) ke_scale = std::max(ke_scale, std::abs(v));
  EXPECT_LT(max_abs_diff(ke_bf, ke_ir), 1e-12 * ke_scale);

  tend_thickness(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::BranchFree);
  const auto th_bf = snapshot(fields.get(FieldId::TendH));
  tend_thickness(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::Refactored);
  const auto th_rf = snapshot(fields.get(FieldId::TendH));
  tend_thickness(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::Irregular);
  const auto th_ir = snapshot(fields.get(FieldId::TendH));
  EXPECT_EQ(max_abs_diff(th_bf, th_rf), 0.0);
  Real th_scale = 0;
  for (Real v : th_bf) th_scale = std::max(th_scale, std::abs(v));
  EXPECT_LT(max_abs_diff(th_bf, th_ir), 1e-11 * th_scale);
}

TEST_F(SwKernelTest, ReconstructVariantsAgreeAndRecoverWind) {
  auto c = ctx();
  reconstruct_vector(c, FieldId::U, 0, mesh_->num_cells,
                     LoopVariant::BranchFree);
  reconstruct_horizontal(c, 0, mesh_->num_cells);
  const auto zonal = snapshot(fields.get(FieldId::ReconZonal));
  const auto merid = snapshot(fields.get(FieldId::ReconMeridional));

  reconstruct_vector(c, FieldId::U, 0, mesh_->num_cells,
                     LoopVariant::Irregular);
  reconstruct_horizontal(c, 0, mesh_->num_cells);
  const auto zonal_ir = snapshot(fields.get(FieldId::ReconZonal));
  EXPECT_LT(max_abs_diff(zonal, zonal_ir), 1e-9);

  // The reconstruction must recover the analytic wind to discretization
  // accuracy (level-4 mesh, ~470 km spacing: a few percent of max wind).
  const auto tc = make_test_case(6);
  Real max_err = 0, max_wind = 0;
  for (Index cc = 0; cc < mesh_->num_cells; ++cc) {
    const Real uz = tc->zonal_wind(mesh_->lon_cell[cc], mesh_->lat_cell[cc]);
    const Real um =
        tc->meridional_wind(mesh_->lon_cell[cc], mesh_->lat_cell[cc]);
    max_err = std::max({max_err, std::abs(zonal[cc] - uz),
                        std::abs(merid[cc] - um)});
    max_wind = std::max({max_wind, std::abs(uz), std::abs(um)});
  }
  EXPECT_LT(max_err, 0.08 * max_wind);
}

TEST_F(SwKernelTest, TendencyConservesMassExactly) {
  // sum over cells of areaCell * tend_h telescopes to zero: each edge flux
  // enters one cell and leaves the other.
  auto c = ctx();
  diag_h_edge(c, FieldId::H, 0, mesh_->num_edges);
  tend_thickness(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::BranchFree);
  const auto tend_h = fields.get(FieldId::TendH);
  Real total = 0, scale = 0;
  for (Index cc = 0; cc < mesh_->num_cells; ++cc) {
    total += mesh_->area_cell[cc] * tend_h[cc];
    scale += mesh_->area_cell[cc] * std::abs(tend_h[cc]);
  }
  EXPECT_LT(std::abs(total), 1e-12 * scale);
}

TEST_F(SwKernelTest, GradientOfConstantSurfaceIsZero) {
  // With h + b uniform and u = 0, the momentum tendency must vanish
  // identically (a lake at rest stays at rest).
  auto c = ctx();
  auto h = fields.get(FieldId::H);
  const auto b = fields.get(FieldId::Bottom);
  for (Index cc = 0; cc < mesh_->num_cells; ++cc) h[cc] = 1000.0 - b[cc];
  fields.fill(FieldId::U, 0.0);

  diag_h_edge(c, FieldId::H, 0, mesh_->num_edges);
  diag_ke(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::BranchFree);
  diag_vorticity(c, FieldId::U, 0, mesh_->num_vertices, LoopVariant::BranchFree);
  diag_h_pv_vertex(c, FieldId::H, 0, mesh_->num_vertices);
  diag_pv_cell(c, 0, mesh_->num_cells);
  diag_v_tangent(c, FieldId::U, 0, mesh_->num_edges);
  diag_pv_edge(c, FieldId::U, 0, mesh_->num_edges);
  tend_momentum(c, FieldId::H, FieldId::U, 0, mesh_->num_edges);

  const auto tend_u = fields.get(FieldId::TendU);
  Real max_tend = 0;
  for (Index e = 0; e < mesh_->num_edges; ++e)
    max_tend = std::max(max_tend, std::abs(tend_u[e]));
  EXPECT_LT(max_tend, 1e-9);  // g*(h+b) differences are exactly zero
}

TEST_F(SwKernelTest, LaplacianOfConstantIsZeroAndNegativeSemiDefinite) {
  auto c = ctx();
  fields.fill(FieldId::H, 42.0);
  tend_h_laplacian(c, FieldId::H, 0, mesh_->num_cells);
  const auto d2h = fields.get(FieldId::D2H);
  for (Index cc = 0; cc < mesh_->num_cells; ++cc)
    EXPECT_NEAR(d2h[cc], 0.0, 1e-18);

  // Laplacian is dissipative: integral of h * del2(h) <= 0 for any h.
  auto h = fields.get(FieldId::H);
  for (Index cc = 0; cc < mesh_->num_cells; ++cc)
    h[cc] = std::sin(3 * mesh_->lat_cell[cc]) +
            std::cos(2 * mesh_->lon_cell[cc]);
  tend_h_laplacian(c, FieldId::H, 0, mesh_->num_cells);
  Real integral = 0;
  for (Index cc = 0; cc < mesh_->num_cells; ++cc)
    integral += mesh_->area_cell[cc] * h[cc] * d2h[cc];
  EXPECT_LT(integral, 0);
}

TEST_F(SwKernelTest, EnforceBoundaryZerosMaskedEdges) {
  // Fake a boundary on a copy of the mesh.
  mesh::VoronoiMesh m = *mesh_;
  m.boundary_edges = {7, 100};
  FieldStore f(m);
  auto tend_u = f.get(FieldId::TendU);
  for (Index e = 0; e < m.num_edges; ++e) tend_u[e] = 1.0;
  SwContext c2{m, f, params, 0, 0};
  enforce_boundary_edge(c2, 0, m.num_edges);
  EXPECT_EQ(tend_u[7], 0.0);
  EXPECT_EQ(tend_u[100], 0.0);
  EXPECT_EQ(tend_u[8], 1.0);
}

TEST_F(SwKernelTest, EnforceBoundaryTouchesOnlyBoundaryEdgesInItsRange) {
  mesh::VoronoiMesh m = *mesh_;
  m.boundary_edges = {7, 100, 101, 500};
  FieldStore f(m);
  auto tend_u = f.get(FieldId::TendU);
  for (Index e = 0; e < m.num_edges; ++e) tend_u[e] = 1.0;
  SwContext c2{m, f, params, 0, 0};
  enforce_boundary_edge(c2, 100, 500);  // a split node's share
  for (Index e = 0; e < m.num_edges; ++e)
    EXPECT_EQ(tend_u[e], e == 100 || e == 101 ? 0.0 : 1.0) << "edge " << e;
  enforce_boundary_edge(c2, 500, m.num_edges);
  EXPECT_EQ(tend_u[500], 0.0);
  EXPECT_EQ(tend_u[7], 1.0);
}

TEST_F(SwKernelTest, UpdateKernelsImplementAxpy) {
  auto c = ctx();
  c.rk_substep_coeff = 2.5;
  c.rk_accum_coeff = 0.25;
  auto h = fields.get(FieldId::H);
  auto tend_h = fields.get(FieldId::TendH);
  for (Index cc = 0; cc < mesh_->num_cells; ++cc) {
    h[cc] = cc;
    tend_h[cc] = 1.0;
  }
  next_substep_h(c, 0, mesh_->num_cells);
  EXPECT_EQ(fields.get(FieldId::HProvis)[10], 10.0 + 2.5);

  init_accum_h(c, 0, mesh_->num_cells);
  accumulate_h(c, 0, mesh_->num_cells);
  EXPECT_EQ(fields.get(FieldId::HNew)[10], 10.0 + 0.25);
  commit_h(c, 0, mesh_->num_cells);
  EXPECT_EQ(fields.get(FieldId::H)[10], 10.25);
}

TEST_F(SwKernelTest, RangeSplitMatchesFullRange) {
  // Gather kernels must be range-splittable: computing [0,n) in two halves
  // gives bitwise the same result as one call — this is what makes the
  // pattern-driven "adjustable part" legal.
  auto c = ctx();
  diag_h_edge(c, FieldId::H, 0, mesh_->num_edges);
  tend_thickness(c, FieldId::U, 0, mesh_->num_cells, LoopVariant::BranchFree);
  const auto whole = snapshot(fields.get(FieldId::TendH));
  const Index mid = mesh_->num_cells / 3;
  tend_thickness(c, FieldId::U, 0, mid, LoopVariant::BranchFree);
  tend_thickness(c, FieldId::U, mid, mesh_->num_cells, LoopVariant::BranchFree);
  EXPECT_EQ(max_abs_diff(whole, snapshot(fields.get(FieldId::TendH))), 0.0);
}

}  // namespace
}  // namespace mpas::sw
