// compute_tend kernels: thickness and momentum tendencies plus the optional
// del^2 dissipation paths (the paper's d2fdx2 variables).
#include "sw/kernels.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mpas::sw {

void tend_thickness(const SwContext& ctx, FieldId u_in, Index begin, Index end,
                    LoopVariant variant) {
  const auto& m = ctx.mesh;
  const auto u = ctx.fields.get(u_in);
  const auto h_edge = ctx.fields.get(FieldId::HEdge);
  auto tend_h = ctx.fields.get(FieldId::TendH);

  if (variant == LoopVariant::Irregular) {
    // Original edge-order scatter (Algorithm 2 shape): the flux through
    // each edge leaves one cell and enters the other.
    for (Index c = 0; c < m.num_cells; ++c) tend_h[c] = 0;
    for (Index e = 0; e < m.num_edges; ++e) {
      const Real flux = u[e] * h_edge[e] * m.dv_edge[e];
      tend_h[m.cells_on_edge(e, 0)] -= flux;
      tend_h[m.cells_on_edge(e, 1)] += flux;
    }
    for (Index c = 0; c < m.num_cells; ++c) tend_h[c] /= m.area_cell[c];
    return;
  }

  if (variant == LoopVariant::Refactored) {
    for (Index c = begin; c < end; ++c) {
      Real acc = 0;
      for (Index j = 0; j < m.n_edges_on_cell[c]; ++j) {
        const Index e = m.edges_on_cell(c, j);
        const Real flux = u[e] * h_edge[e] * m.dv_edge[e];
        if (m.cells_on_edge(e, 0) == c)
          acc -= flux;
        else
          acc += flux;
      }
      tend_h[c] = acc / m.area_cell[c];
    }
    return;
  }

  for (Index c = begin; c < end; ++c) {
    Real acc = 0;
    for (Index j = 0; j < m.n_edges_on_cell[c]; ++j) {
      const Index e = m.edges_on_cell(c, j);
      acc -= m.edge_sign_on_cell(c, j) * u[e] * h_edge[e] * m.dv_edge[e];
    }
    tend_h[c] = acc / m.area_cell[c];
  }
}

void tend_momentum(const SwContext& ctx, FieldId h_in, FieldId u_in,
                   Index begin, Index end) {
  const auto& m = ctx.mesh;
  const auto h = ctx.fields.get(h_in);
  const auto u = ctx.fields.get(u_in);
  const auto b = ctx.fields.get(FieldId::Bottom);
  const auto ke = ctx.fields.get(FieldId::Ke);
  const auto h_edge = ctx.fields.get(FieldId::HEdge);
  const auto pv_edge = ctx.fields.get(FieldId::PvEdge);
  auto tend_u = ctx.fields.get(FieldId::TendU);
  const Real g = ctx.params.gravity;

  for (Index e = begin; e < end; ++e) {
    // Nonlinear Coriolis + curvature term q F_perp: the TRiSK tangential
    // reconstruction of the thickness flux, weighted by the average
    // potential vorticity of the edge pair.
    Real q_f_perp = 0;
    for (Index j = 0; j < m.n_edges_on_edge[e]; ++j) {
      const Index eoe = m.edges_on_edge(e, j);
      q_f_perp += m.weights_on_edge(e, j) * u[eoe] * h_edge[eoe] * 0.5 *
                  (pv_edge[e] + pv_edge[eoe]);
    }
    // Gradient of the Bernoulli function g(h+b) + K along the edge normal.
    const Index c0 = m.cells_on_edge(e, 0);
    const Index c1 = m.cells_on_edge(e, 1);
    const Real grad = (g * (h[c1] + b[c1] - h[c0] - b[c0]) + ke[c1] - ke[c0]) /
                      m.dc_edge[e];
    tend_u[e] = q_f_perp - grad;
  }
}

void tend_h_laplacian(const SwContext& ctx, FieldId h_in, Index begin,
                      Index end) {
  // Discrete del^2 of thickness: cell <- neighbouring cells (pattern B).
  const auto& m = ctx.mesh;
  const auto h = ctx.fields.get(h_in);
  auto d2h = ctx.fields.get(FieldId::D2H);
  for (Index c = begin; c < end; ++c) {
    Real acc = 0;
    for (Index j = 0; j < m.n_edges_on_cell[c]; ++j) {
      const Index e = m.edges_on_cell(c, j);
      const Index other = m.cells_on_cell(c, j);
      acc += m.dv_edge[e] * (h[other] - h[c]) / m.dc_edge[e];
    }
    d2h[c] = acc / m.area_cell[c];
  }
}

void tend_h_add_del2(const SwContext& ctx, Index begin, Index end) {
  const auto d2h = ctx.fields.get(FieldId::D2H);
  auto tend_h = ctx.fields.get(FieldId::TendH);
  const Real nu = ctx.params.nu_del2_h;
  for (Index c = begin; c < end; ++c) tend_h[c] += nu * d2h[c];
}

void tend_u_add_del2(const SwContext& ctx, Index begin, Index end) {
  // Vector Laplacian on the C-grid: del^2 u = grad(div) - k x grad(vort).
  const auto& m = ctx.mesh;
  const auto div = ctx.fields.get(FieldId::Divergence);
  const auto vort = ctx.fields.get(FieldId::Vorticity);
  auto tend_u = ctx.fields.get(FieldId::TendU);
  const Real nu = ctx.params.nu_del2_u;
  for (Index e = begin; e < end; ++e) {
    const Real grad_div =
        (div[m.cells_on_edge(e, 1)] - div[m.cells_on_edge(e, 0)]) /
        m.dc_edge[e];
    const Real curl_vort =
        (vort[m.vertices_on_edge(e, 1)] - vort[m.vertices_on_edge(e, 0)]) /
        m.dv_edge[e];
    tend_u[e] += nu * (grad_div - curl_vort);
  }
}

void enforce_boundary_edge(const SwContext& ctx, Index begin, Index end) {
  const auto& m = ctx.mesh;
  auto tend_u = ctx.fields.get(FieldId::TendU);
  const auto first = std::lower_bound(m.boundary_edges.begin(),
                                      m.boundary_edges.end(), begin);
  for (auto it = first; it != m.boundary_edges.end() && *it < end; ++it)
    tend_u[*it] = 0;
}

}  // namespace mpas::sw
