// compute_solve_diagnostics kernels. See kernels.hpp for the pattern
// taxonomy and variant semantics.
#include "sw/kernels.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mpas::sw {

const char* to_string(LoopVariant v) {
  switch (v) {
    case LoopVariant::Irregular: return "irregular";
    case LoopVariant::Refactored: return "refactored";
    case LoopVariant::BranchFree: return "branch-free";
  }
  return "?";
}

void diag_h_edge(const SwContext& ctx, FieldId h_in, Index begin, Index end) {
  const auto& m = ctx.mesh;
  const auto h = ctx.fields.get(h_in);
  auto h_edge = ctx.fields.get(FieldId::HEdge);
  for (Index e = begin; e < end; ++e)
    h_edge[e] = 0.5 * (h[m.cells_on_edge(e, 0)] + h[m.cells_on_edge(e, 1)]);
}

void diag_ke(const SwContext& ctx, FieldId u_in, Index begin, Index end,
             LoopVariant variant) {
  const auto& m = ctx.mesh;
  const auto u = ctx.fields.get(u_in);
  auto ke = ctx.fields.get(FieldId::Ke);

  if (variant == LoopVariant::Irregular) {
    // Original MPAS-style traversal: loop over edges, scatter the edge
    // quadrilateral's energy into both adjacent cells (Algorithm 2 shape).
    for (Index c = 0; c < m.num_cells; ++c) ke[c] = 0;
    for (Index e = 0; e < m.num_edges; ++e) {
      const Real contrib = 0.25 * m.dc_edge[e] * m.dv_edge[e] * u[e] * u[e];
      ke[m.cells_on_edge(e, 0)] += contrib;
      ke[m.cells_on_edge(e, 1)] += contrib;
    }
    for (Index c = 0; c < m.num_cells; ++c) ke[c] /= m.area_cell[c];
    return;
  }

  // Gather form (Algorithm 3/4; ke has no sign, so the two coincide).
  for (Index c = begin; c < end; ++c) {
    Real acc = 0;
    for (Index j = 0; j < m.n_edges_on_cell[c]; ++j) {
      const Index e = m.edges_on_cell(c, j);
      acc += 0.25 * m.dc_edge[e] * m.dv_edge[e] * u[e] * u[e];
    }
    ke[c] = acc / m.area_cell[c];
  }
}

void diag_vorticity(const SwContext& ctx, FieldId u_in, Index begin, Index end,
                    LoopVariant variant) {
  const auto& m = ctx.mesh;
  const auto u = ctx.fields.get(u_in);
  auto vort = ctx.fields.get(FieldId::Vorticity);

  if (variant == LoopVariant::Irregular) {
    // Edge-order scatter of signed circulation into the two end vertices.
    for (Index v = 0; v < m.num_vertices; ++v) vort[v] = 0;
    for (Index e = 0; e < m.num_edges; ++e) {
      const Real circ = m.dc_edge[e] * u[e];
      // vertices_on_edge(e,0) -> (e,1) is the tangent direction; the edge
      // contributes with opposite signs to the circulations of its two
      // vertices. Recover each sign from edge_sign_on_vertex to stay
      // consistent with the gather form.
      for (int k = 0; k < 2; ++k) {
        const Index v = m.vertices_on_edge(e, k);
        for (int j = 0; j < mesh::VoronoiMesh::kVertexDegree; ++j)
          if (m.edges_on_vertex(v, j) == e)
            vort[v] += m.edge_sign_on_vertex(v, j) * circ;
      }
    }
    for (Index v = 0; v < m.num_vertices; ++v) vort[v] /= m.area_triangle[v];
    return;
  }

  if (variant == LoopVariant::Refactored) {
    // Gather with an explicit orientation branch (Algorithm 3 shape):
    // the sign is +1 when walking the dual edge from cells_on_edge(e,0)
    // to (e,1) goes counterclockwise around v.
    for (Index v = begin; v < end; ++v) {
      Real acc = 0;
      for (int j = 0; j < mesh::VoronoiMesh::kVertexDegree; ++j) {
        const Index e = m.edges_on_vertex(v, j);
        if (m.edge_sign_on_vertex(v, j) > 0)
          acc += m.dc_edge[e] * u[e];
        else
          acc -= m.dc_edge[e] * u[e];
      }
      vort[v] = acc / m.area_triangle[v];
    }
    return;
  }

  // Branch-free: multiply by the label matrix (Algorithm 4 shape).
  for (Index v = begin; v < end; ++v) {
    Real acc = 0;
    for (int j = 0; j < mesh::VoronoiMesh::kVertexDegree; ++j) {
      const Index e = m.edges_on_vertex(v, j);
      acc += m.edge_sign_on_vertex(v, j) * m.dc_edge[e] * u[e];
    }
    vort[v] = acc / m.area_triangle[v];
  }
}

void diag_divergence(const SwContext& ctx, FieldId u_in, Index begin,
                     Index end, LoopVariant variant) {
  const auto& m = ctx.mesh;
  const auto u = ctx.fields.get(u_in);
  auto div = ctx.fields.get(FieldId::Divergence);

  if (variant == LoopVariant::Irregular) {
    // Algorithm 2 of the paper, verbatim shape: edge order, Y(cell1) += X,
    // Y(cell2) -= X.
    for (Index c = 0; c < m.num_cells; ++c) div[c] = 0;
    for (Index e = 0; e < m.num_edges; ++e) {
      const Real flux = m.dv_edge[e] * u[e];
      div[m.cells_on_edge(e, 0)] += flux;
      div[m.cells_on_edge(e, 1)] -= flux;
    }
    for (Index c = 0; c < m.num_cells; ++c) div[c] /= m.area_cell[c];
    return;
  }

  if (variant == LoopVariant::Refactored) {
    // Algorithm 3: cell order with the orientation conditional.
    for (Index c = begin; c < end; ++c) {
      Real acc = 0;
      for (Index j = 0; j < m.n_edges_on_cell[c]; ++j) {
        const Index e = m.edges_on_cell(c, j);
        if (m.cells_on_edge(e, 0) == c)
          acc += m.dv_edge[e] * u[e];
        else
          acc -= m.dv_edge[e] * u[e];
      }
      div[c] = acc / m.area_cell[c];
    }
    return;
  }

  // Algorithm 4: branch removed via the label matrix edge_sign_on_cell.
  for (Index c = begin; c < end; ++c) {
    Real acc = 0;
    for (Index j = 0; j < m.n_edges_on_cell[c]; ++j) {
      const Index e = m.edges_on_cell(c, j);
      acc += m.edge_sign_on_cell(c, j) * m.dv_edge[e] * u[e];
    }
    div[c] = acc / m.area_cell[c];
  }
}

void diag_v_tangent(const SwContext& ctx, FieldId u_in, Index begin,
                    Index end) {
  // The weights_on_edge and edges_on_edge rows (80 + 40 bytes per edge)
  // are requested this many edges ahead: on a 163842-cell mesh that took
  // the loop from 8.4-8.7 to 6.4-6.6 ms per call (distances 32 to 256 all
  // measured alike; 4-vCPU Xeon VM). The same prefetch in tend_momentum
  // showed no consistent gain (4-8% slower alone, -12% to +2% inside a
  // step) and is not used there.
  constexpr Index kPrefetchAhead = 64;
  const auto& m = ctx.mesh;
  const auto u = ctx.fields.get(u_in);
  auto v = ctx.fields.get(FieldId::VTangent);
  const Index last = m.num_edges - 1;
  for (Index e = begin; e < end; ++e) {
    const Index ahead = std::min(e + kPrefetchAhead, last);
    __builtin_prefetch(&m.weights_on_edge(ahead, 0));
    __builtin_prefetch(&m.weights_on_edge(ahead, 8));  // the row's 2nd line
    __builtin_prefetch(&m.edges_on_edge(ahead, 0));
    Real acc = 0;
    for (Index j = 0; j < m.n_edges_on_edge[e]; ++j)
      acc += m.weights_on_edge(e, j) * u[m.edges_on_edge(e, j)];
    v[e] = acc;
  }
}

void diag_h_pv_vertex(const SwContext& ctx, FieldId h_in, Index begin,
                      Index end) {
  const auto& m = ctx.mesh;
  const auto h = ctx.fields.get(h_in);
  const auto vort = ctx.fields.get(FieldId::Vorticity);
  auto h_vertex = ctx.fields.get(FieldId::HVertex);
  auto pv_vertex = ctx.fields.get(FieldId::PvVertex);
  for (Index v = begin; v < end; ++v) {
    Real acc = 0;
    for (int j = 0; j < mesh::VoronoiMesh::kVertexDegree; ++j)
      acc += m.kite_areas_on_vertex(v, j) * h[m.cells_on_vertex(v, j)];
    h_vertex[v] = acc / m.area_triangle[v];
    pv_vertex[v] = (m.f_vertex[v] + vort[v]) / h_vertex[v];
  }
}

void diag_pv_cell(const SwContext& ctx, Index begin, Index end) {
  const auto& m = ctx.mesh;
  const auto pv_vertex = ctx.fields.get(FieldId::PvVertex);
  auto pv_cell = ctx.fields.get(FieldId::PvCell);
  for (Index c = begin; c < end; ++c) {
    Real acc = 0;
    for (Index j = 0; j < m.n_edges_on_cell[c]; ++j)
      acc += m.kite_areas_on_cell(c, j) * pv_vertex[m.vertices_on_cell(c, j)];
    pv_cell[c] = acc / m.area_cell[c];
  }
}

void diag_pv_edge(const SwContext& ctx, FieldId u_in, Index begin, Index end) {
  const auto& m = ctx.mesh;
  const auto u = ctx.fields.get(u_in);
  const auto v = ctx.fields.get(FieldId::VTangent);
  const auto pv_vertex = ctx.fields.get(FieldId::PvVertex);
  const auto pv_cell = ctx.fields.get(FieldId::PvCell);
  auto pv_edge = ctx.fields.get(FieldId::PvEdge);
  const Real upwind = ctx.params.apvm_factor * ctx.params.dt;
  for (Index e = begin; e < end; ++e) {
    const Index v0 = m.vertices_on_edge(e, 0);
    const Index v1 = m.vertices_on_edge(e, 1);
    Real pv = 0.5 * (pv_vertex[v0] + pv_vertex[v1]);
    // Anticipated potential vorticity method: upwind along the full
    // velocity vector, q <- q - (dt/2) u . grad(q).
    const Real grad_t = (pv_vertex[v1] - pv_vertex[v0]) / m.dv_edge[e];
    const Real grad_n =
        (pv_cell[m.cells_on_edge(e, 1)] - pv_cell[m.cells_on_edge(e, 0)]) /
        m.dc_edge[e];
    pv -= upwind * (u[e] * grad_n + v[e] * grad_t);
    pv_edge[e] = pv;
  }
}

}  // namespace mpas::sw
