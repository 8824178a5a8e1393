#include "mesh/renumber.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/error.hpp"

namespace mpas::mesh {

namespace {

/// The non-trivial cycles of a permutation, flattened: each cycle is listed
/// from its first member c0 (stored as ~c0) through c1 = perm[c0],
/// c2 = perm[c1], ... up to the member that maps back to c0. Moving data
/// along this list reads it front to back, so the row loads of one pass are
/// independent of each other instead of one long chain through perm.
std::vector<Index> cycles_of(std::span<const Index> perm) {
  const auto n = static_cast<Index>(perm.size());
  std::vector<bool> seen(perm.size(), false);
  for (Index i = 0; i < n; ++i) {
    const Index to = perm[static_cast<std::size_t>(i)];
    MPAS_CHECK_MSG(to >= 0 && to < n && !seen[static_cast<std::size_t>(to)],
                   "renumber: not a permutation of 0.." << n - 1);
    seen[static_cast<std::size_t>(to)] = true;
  }
  std::fill(seen.begin(), seen.end(), false);
  std::vector<Index> cycles;
  for (Index start = 0; start < n; ++start) {
    if (seen[static_cast<std::size_t>(start)] ||
        perm[static_cast<std::size_t>(start)] == start)
      continue;
    cycles.push_back(~start);
    seen[static_cast<std::size_t>(start)] = true;
    for (Index at = perm[static_cast<std::size_t>(start)]; at != start;
         at = perm[static_cast<std::size_t>(at)]) {
      cycles.push_back(at);
      seen[static_cast<std::size_t>(at)] = true;
    }
  }
  return cycles;
}

/// Move row i of `data` (rows of `width` elements) to row perm[i], in
/// place, along the flattened cycles.
template <class T>
void permute_rows(T* data, std::size_t width, const std::vector<Index>& cycles) {
  constexpr std::size_t kMaxWidth = VoronoiMesh::kMaxEdgesOnEdge;
  MPAS_CHECK(width <= kMaxWidth);
  std::array<T, kMaxWidth> carry;
  auto row = [&](Index i) { return data + static_cast<std::size_t>(i) * width; };
  const std::size_t n = cycles.size();
  for (std::size_t k = 0; k < n;) {
    T* first = row(~cycles[k++]);
    std::copy_n(first, width, carry.begin());
    for (; k < n && cycles[k] >= 0; ++k) {
      T* r = row(cycles[k]);
      for (std::size_t w = 0; w < width; ++w) std::swap(carry[w], r[w]);
    }
    std::copy_n(carry.begin(), width, first);
  }
}

template <class Vec>
void permute(Vec& v, const std::vector<Index>& cycles) {
  if (!v.empty()) permute_rows(v.data(), 1, cycles);
}

template <class T>
void permute(Array2D<T>& a, const std::vector<Index>& cycles) {
  if (!a.empty())
    permute_rows(a.data(), static_cast<std::size_t>(a.cols()), cycles);
}

/// Map every valid index stored in `a` to its new label.
void relabel(Array2D<Index>& a, std::span<const Index> perm) {
  Index* p = a.data();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (p[i] != kInvalidIndex) p[i] = perm[static_cast<std::size_t>(p[i])];
}

// Hilbert index of (x, y) on a 2^kOrder x 2^kOrder grid.
constexpr int kOrder = 16;

std::uint64_t hilbert_index(std::uint32_t x, std::uint32_t y) {
  constexpr std::uint32_t n = 1u << kOrder;
  std::uint64_t d = 0;
  for (std::uint32_t s = n / 2; s > 0; s /= 2) {
    const std::uint32_t rx = (x & s) ? 1 : 0;
    const std::uint32_t ry = (y & s) ? 1 : 0;
    d += static_cast<std::uint64_t>(s) * s * ((3 * rx) ^ ry);
    if (ry == 0) {  // rotate the quadrant
      if (rx == 1) {
        x = n - 1 - x;
        y = n - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

std::uint32_t grid_coord(Real t) {  // t in [-1, 1]
  constexpr Real n = static_cast<Real>(1u << kOrder);
  const Real g = std::floor((t + 1) * 0.5 * n);
  return static_cast<std::uint32_t>(std::clamp<Real>(g, 0, n - 1));
}

}  // namespace

std::uint64_t cube_hilbert_key(const Vec3& x) {
  const Real ax = std::abs(x.x), ay = std::abs(x.y), az = std::abs(x.z);
  // Faces +x, +y, -x, -y (the equatorial ring, neighbours in turn), +z, -z;
  // gnomonic coordinates (u, v) in [-1, 1] on each.
  int face;
  Real u, v;
  if (ax >= ay && ax >= az) {
    face = x.x > 0 ? 0 : 2;
    u = x.y / ax;
    v = x.z / ax;
  } else if (ay >= az) {
    face = x.y > 0 ? 1 : 3;
    u = x.x / ay;
    v = x.z / ay;
  } else {
    face = x.z > 0 ? 4 : 5;
    u = x.x / az;
    v = x.y / az;
  }
  return (static_cast<std::uint64_t>(face) << (2 * kOrder)) |
         hilbert_index(grid_coord(u), grid_coord(v));
}

MeshOrder hilbert_order(const VoronoiMesh& m) {
  MeshOrder order;
  // Cells: sorted by key, ties by old label.
  std::vector<std::pair<std::uint64_t, Index>> keyed(
      static_cast<std::size_t>(m.num_cells));
  for (Index c = 0; c < m.num_cells; ++c)
    keyed[static_cast<std::size_t>(c)] = {cube_hilbert_key(m.x_cell[c]), c};
  std::sort(keyed.begin(), keyed.end());
  order.cell.resize(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i)
    order.cell[static_cast<std::size_t>(keyed[i].second)] =
        static_cast<Index>(i);

  // Edges, then vertices: numbered as first reached from the new order.
  order.edge.assign(static_cast<std::size_t>(m.num_edges), kInvalidIndex);
  Index next = 0;
  for (const auto& [key, c] : keyed)
    for (Index j = 0; j < m.n_edges_on_cell[c]; ++j) {
      Index& e = order.edge[static_cast<std::size_t>(m.edges_on_cell(c, j))];
      if (e == kInvalidIndex) e = next++;
    }
  MPAS_CHECK_MSG(next == m.num_edges, "renumber: edge on no cell");

  std::vector<Index> edge_at(static_cast<std::size_t>(m.num_edges));
  for (Index e = 0; e < m.num_edges; ++e)
    edge_at[static_cast<std::size_t>(order.edge[static_cast<std::size_t>(e)])] = e;
  order.vertex.assign(static_cast<std::size_t>(m.num_vertices), kInvalidIndex);
  next = 0;
  for (const Index e : edge_at)
    for (int k = 0; k < 2; ++k) {
      Index& v = order.vertex[static_cast<std::size_t>(m.vertices_on_edge(e, k))];
      if (v == kInvalidIndex) v = next++;
    }
  MPAS_CHECK_MSG(next == m.num_vertices, "renumber: vertex on no edge");
  return order;
}

void renumber(VoronoiMesh& m, std::span<const Index> cell_perm,
              std::span<const Index> edge_perm,
              std::span<const Index> vertex_perm) {
  MPAS_CHECK(static_cast<Index>(cell_perm.size()) == m.num_cells &&
             static_cast<Index>(edge_perm.size()) == m.num_edges &&
             static_cast<Index>(vertex_perm.size()) == m.num_vertices);

  // Every permutation is checked before anything moves.
  const std::vector<Index> cells = cycles_of(cell_perm);
  const std::vector<Index> edges = cycles_of(edge_perm);
  const std::vector<Index> vertices = cycles_of(vertex_perm);

  relabel(m.edges_on_cell, edge_perm);
  relabel(m.cells_on_cell, cell_perm);
  relabel(m.vertices_on_cell, vertex_perm);
  relabel(m.cells_on_edge, cell_perm);
  relabel(m.vertices_on_edge, vertex_perm);
  relabel(m.edges_on_edge, edge_perm);
  relabel(m.cells_on_vertex, cell_perm);
  relabel(m.edges_on_vertex, edge_perm);
  for (Index& e : m.boundary_edges) e = edge_perm[static_cast<std::size_t>(e)];
  std::sort(m.boundary_edges.begin(), m.boundary_edges.end());

  // Every per-entity array of VoronoiMesh is listed here; mesh_io's payload
  // is the same list.
  permute(m.x_cell, cells);
  permute(m.n_edges_on_cell, cells);
  permute(m.edges_on_cell, cells);
  permute(m.cells_on_cell, cells);
  permute(m.vertices_on_cell, cells);
  permute(m.edge_sign_on_cell, cells);
  permute(m.kite_areas_on_cell, cells);
  permute(m.area_cell, cells);
  permute(m.f_cell, cells);
  permute(m.lat_cell, cells);
  permute(m.lon_cell, cells);
  permute(m.global_cell_id, cells);

  permute(m.x_edge, edges);
  permute(m.cells_on_edge, edges);
  permute(m.vertices_on_edge, edges);
  permute(m.n_edges_on_edge, edges);
  permute(m.edges_on_edge, edges);
  permute(m.weights_on_edge, edges);
  permute(m.dc_edge, edges);
  permute(m.dv_edge, edges);
  permute(m.f_edge, edges);
  permute(m.lat_edge, edges);
  permute(m.lon_edge, edges);
  permute(m.edge_normal, edges);
  permute(m.edge_tangent, edges);
  permute(m.global_edge_id, edges);

  permute(m.x_vertex, vertices);
  permute(m.cells_on_vertex, vertices);
  permute(m.edges_on_vertex, vertices);
  permute(m.edge_sign_on_vertex, vertices);
  permute(m.kite_areas_on_vertex, vertices);
  permute(m.area_triangle, vertices);
  permute(m.f_vertex, vertices);
  permute(m.lat_vertex, vertices);
  permute(m.lon_vertex, vertices);
  permute(m.global_vertex_id, vertices);
}

}  // namespace mpas::mesh
