// Constructs the full MPAS-style Voronoi mesh (connectivity + metrics) as the
// dual of an icosahedral-class spherical triangulation.
//
// Area bookkeeping: kite areas are computed from the exact spherical quads
// (cell center, edge point, vertex, edge point); cell areas and triangle
// areas are then defined as sums of their kites. This makes two identities
// *exact* (not just approximate):
//   sum of kites around a cell   == areaCell   (required for the TRiSK
//       tangential weights to be antisymmetric -> Coriolis does no work)
//   sum of kites around a vertex == areaTriangle (required for the
//       cell->vertex thickness interpolation to be conservative)
// and the kites tile the sphere, so total cell area == total triangle area
// == 4*pi*R^2 to rounding error.
#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "mesh/mesh.hpp"
#include "mesh/renumber.hpp"
#include "mesh/trimesh.hpp"
#include "util/error.hpp"

namespace mpas::mesh {

std::string resolution_label_for_level(int level) {
  switch (level) {
    case 6: return "120-km";
    case 7: return "60-km";
    case 8: return "30-km";
    case 9: return "15-km";
    default: {
      // 2^k refinements halve the spacing; level 6 ~ 120 km.
      const double km = 120.0 * std::pow(2.0, 6 - level);
      return std::to_string(static_cast<long>(km + 0.5)) + "-km";
    }
  }
}

std::string VoronoiMesh::resolution_label() const {
  return resolution_label_for_level(subdivision_level);
}

Real VoronoiMesh::nominal_resolution_km() const {
  if (num_edges == 0) return 0;
  Real sum = 0;
  for (Index e = 0; e < num_edges; ++e) sum += dc_edge[e];
  return sum / num_edges / 1000.0;
}

std::size_t VoronoiMesh::mesh_data_bytes() const {
  std::size_t bytes = 0;
  bytes += x_cell.size() * sizeof(Vec3);
  bytes += x_edge.size() * sizeof(Vec3);
  bytes += x_vertex.size() * sizeof(Vec3);
  bytes += n_edges_on_cell.size() * sizeof(Index);
  bytes += edges_on_cell.size() * sizeof(Index);
  bytes += cells_on_cell.size() * sizeof(Index);
  bytes += vertices_on_cell.size() * sizeof(Index);
  bytes += edge_sign_on_cell.size() * sizeof(Real);
  bytes += cells_on_edge.size() * sizeof(Index);
  bytes += vertices_on_edge.size() * sizeof(Index);
  bytes += n_edges_on_edge.size() * sizeof(Index);
  bytes += edges_on_edge.size() * sizeof(Index);
  bytes += weights_on_edge.size() * sizeof(Real);
  bytes += cells_on_vertex.size() * sizeof(Index);
  bytes += edges_on_vertex.size() * sizeof(Index);
  bytes += edge_sign_on_vertex.size() * sizeof(Real);
  bytes += kite_areas_on_vertex.size() * sizeof(Real);
  bytes += kite_areas_on_cell.size() * sizeof(Real);
  bytes += dc_edge.size() * sizeof(Real);
  bytes += dv_edge.size() * sizeof(Real);
  bytes += area_cell.size() * sizeof(Real);
  bytes += area_triangle.size() * sizeof(Real);
  bytes += f_cell.size() * sizeof(Real);
  bytes += f_edge.size() * sizeof(Real);
  bytes += f_vertex.size() * sizeof(Real);
  bytes += boundary_edges.size() * sizeof(Index);
  return bytes;
}

// Declared in trisk.cpp: fills edges_on_edge / weights_on_edge /
// kite_areas_on_vertex and the kite-derived areas.
void build_trisk_arrays(VoronoiMesh& m);

namespace {

// Latitude, longitude and Coriolis parameter of each point.
void fill_geo(const std::vector<Vec3>& pts, AlignedVector<Real>& lat,
              AlignedVector<Real>& lon, AlignedVector<Real>& f) {
  const std::size_t n = pts.size();
  lat.resize(n);
  lon.resize(n);
  f.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    lat[i] = sphere::latitude(pts[i]);
    lon[i] = sphere::longitude(pts[i]);
    f[i] = 2.0 * constants::kOmega * std::sin(lat[i]);
  }
}

}  // namespace

// Connectivity, metrics and TRiSK arrays in the triangulation's order; the
// point-wise lat/lon/Coriolis arrays are left to build_voronoi_mesh.
VoronoiMesh build_voronoimesh_impl(const TriMesh& tri, Real radius) {
  VoronoiMesh m;
  m.sphere_radius = radius;
  m.num_cells = tri.num_points();
  m.num_vertices = tri.num_triangles();

  m.x_cell = tri.points;

  // --- edges: unique adjacent generator pairs, with their two triangles ----
  // An edge is looked up from its lower-numbered generator: row a of
  // `higher` holds the edges to a's higher-numbered neighbours met so far
  // (at most kMaxEdges, the largest cell degree).
  constexpr Index kMaxEdges = VoronoiMesh::kMaxEdges;
  Array2D<Index> higher(m.num_cells, kMaxEdges, kInvalidIndex);
  std::vector<std::array<Index, 3>> tri_edges(
      static_cast<std::size_t>(m.num_vertices));
  std::vector<std::array<Index, 2>> edge_cells;
  std::vector<std::array<Index, 2>> edge_tris;
  edge_cells.reserve(static_cast<std::size_t>(m.num_vertices) * 3 / 2);
  edge_tris.reserve(edge_cells.capacity());

  for (Index t = 0; t < m.num_vertices; ++t) {
    const auto& tr = tri.triangles[t];
    for (int k = 0; k < 3; ++k) {
      const auto [a, b] = std::minmax(tr[k], tr[(k + 1) % 3]);
      Index slot = 0;
      while (slot < kMaxEdges && higher(a, slot) != kInvalidIndex &&
             edge_cells[higher(a, slot)][1] != b)
        ++slot;
      MPAS_CHECK_MSG(slot < kMaxEdges,
                     "cell " << a << " has more than " << kMaxEdges << " edges");
      Index e = higher(a, slot);
      if (e == kInvalidIndex) {
        e = static_cast<Index>(edge_cells.size());
        higher(a, slot) = e;
        edge_cells.push_back({a, b});
        edge_tris.push_back({t, kInvalidIndex});
      } else {
        auto& pair = edge_tris[e];
        MPAS_CHECK_MSG(pair[1] == kInvalidIndex,
                       "non-manifold edge in triangulation");
        pair[1] = t;
      }
      tri_edges[t][k] = e;
    }
  }
  m.num_edges = static_cast<Index>(edge_cells.size());

  m.cells_on_edge.resize(m.num_edges, 2, kInvalidIndex);
  m.vertices_on_edge.resize(m.num_edges, 2, kInvalidIndex);
  m.x_edge.resize(m.num_edges);
  m.edge_normal.resize(m.num_edges);
  m.edge_tangent.resize(m.num_edges);
  m.dc_edge.resize(m.num_edges);
  m.dv_edge.resize(m.num_edges);

  // Vertex (triangle circumcenter) coordinates first; edge orientation
  // needs them.
  m.x_vertex.resize(m.num_vertices);
  for (Index t = 0; t < m.num_vertices; ++t) {
    const auto& tr = tri.triangles[t];
    m.x_vertex[t] = sphere::circumcenter(tri.points[tr[0]], tri.points[tr[1]],
                                         tri.points[tr[2]]);
  }

  for (Index e = 0; e < m.num_edges; ++e) {
    const Index c0 = edge_cells[e][0];
    const Index c1 = edge_cells[e][1];
    MPAS_CHECK_MSG(edge_tris[e][1] != kInvalidIndex,
                   "boundary edge in closed sphere triangulation");
    m.cells_on_edge(e, 0) = c0;
    m.cells_on_edge(e, 1) = c1;
    m.x_edge[e] = sphere::arc_midpoint(m.x_cell[c0], m.x_cell[c1]);

    const Vec3 r_hat = m.x_edge[e];
    Vec3 n = m.x_cell[c1] - m.x_cell[c0];
    n -= r_hat * n.dot(r_hat);  // project into the tangent plane
    m.edge_normal[e] = n.normalized();
    m.edge_tangent[e] = r_hat.cross(m.edge_normal[e]);

    // Order vertices so the tangent points v0 -> v1.
    Index v0 = edge_tris[e][0];
    Index v1 = edge_tris[e][1];
    if ((m.x_vertex[v1] - m.x_vertex[v0]).dot(m.edge_tangent[e]) < 0)
      std::swap(v0, v1);
    m.vertices_on_edge(e, 0) = v0;
    m.vertices_on_edge(e, 1) = v1;

    m.dc_edge[e] = radius * sphere::arc_length(m.x_cell[c0], m.x_cell[c1]);
    m.dv_edge[e] = radius * sphere::arc_length(m.x_vertex[v0], m.x_vertex[v1]);
  }

  // --- per-cell counterclockwise orderings ---------------------------------
  // Each cell's edges, unordered, straight into the padded rows; a degree
  // past kMaxEdges is counted but not stored, and rejected below.
  m.n_edges_on_cell.assign(static_cast<std::size_t>(m.num_cells), 0);
  m.edges_on_cell.resize(m.num_cells, VoronoiMesh::kMaxEdges, kInvalidIndex);
  m.cells_on_cell.resize(m.num_cells, VoronoiMesh::kMaxEdges, kInvalidIndex);
  m.vertices_on_cell.resize(m.num_cells, VoronoiMesh::kMaxEdges, kInvalidIndex);
  m.edge_sign_on_cell.resize(m.num_cells, VoronoiMesh::kMaxEdges, 0.0);
  for (Index e = 0; e < m.num_edges; ++e)
    for (int side = 0; side < 2; ++side) {
      const Index c = m.cells_on_edge(e, side);
      const Index slot = m.n_edges_on_cell[c]++;
      if (slot < VoronoiMesh::kMaxEdges) m.edges_on_cell(c, slot) = e;
    }

  for (Index c = 0; c < m.num_cells; ++c) {
    const Index deg = m.n_edges_on_cell[c];
    MPAS_CHECK_MSG(deg >= 5 && deg <= VoronoiMesh::kMaxEdges,
                   "cell " << c << " has degree " << deg);

    // Sort by azimuth of the neighbour, each azimuth computed once.
    const Vec3 east = sphere::east_at(m.x_cell[c]);
    const Vec3 north = sphere::north_at(m.x_cell[c]);
    std::array<std::pair<Real, Index>, VoronoiMesh::kMaxEdges> by_azimuth;
    for (Index j = 0; j < deg; ++j) {
      const Index e = m.edges_on_cell(c, j);
      const Index other = m.cells_on_edge(e, 0) == c ? m.cells_on_edge(e, 1)
                                                     : m.cells_on_edge(e, 0);
      const Vec3 d = m.x_cell[other] - m.x_cell[c];
      by_azimuth[j] = {std::atan2(d.dot(north), d.dot(east)), e};
    }
    std::sort(by_azimuth.begin(), by_azimuth.begin() + deg);

    for (Index j = 0; j < deg; ++j) {
      const Index e = by_azimuth[j].second;
      m.edges_on_cell(c, j) = e;
      m.cells_on_cell(c, j) = m.cells_on_edge(e, 0) == c
                                  ? m.cells_on_edge(e, 1)
                                  : m.cells_on_edge(e, 0);
      m.edge_sign_on_cell(c, j) = m.cells_on_edge(e, 0) == c ? 1.0 : -1.0;
    }
    // vertices_on_cell(c, j): the vertex shared by edge j and edge j+1.
    for (Index j = 0; j < deg; ++j) {
      const Index ea = m.edges_on_cell(c, j);
      const Index eb = m.edges_on_cell(c, (j + 1) % deg);
      Index shared = kInvalidIndex;
      for (int p = 0; p < 2; ++p)
        for (int q = 0; q < 2; ++q)
          if (m.vertices_on_edge(ea, p) == m.vertices_on_edge(eb, q))
            shared = m.vertices_on_edge(ea, p);
      MPAS_CHECK_MSG(shared != kInvalidIndex,
                     "consecutive cell edges share no vertex (cell " << c
                                                                     << ")");
      m.vertices_on_cell(c, j) = shared;
    }
  }

  // --- per-vertex counterclockwise orderings --------------------------------
  m.cells_on_vertex.resize(m.num_vertices, VoronoiMesh::kVertexDegree,
                           kInvalidIndex);
  m.edges_on_vertex.resize(m.num_vertices, VoronoiMesh::kVertexDegree,
                           kInvalidIndex);
  m.edge_sign_on_vertex.resize(m.num_vertices, VoronoiMesh::kVertexDegree, 0.0);

  for (Index v = 0; v < m.num_vertices; ++v) {
    const Vec3 east = sphere::east_at(m.x_vertex[v]);
    const Vec3 north = sphere::north_at(m.x_vertex[v]);
    std::array<std::pair<Real, Index>, 3> by_azimuth;
    for (int j = 0; j < 3; ++j) {
      const Index c = tri.triangles[v][j];
      const Vec3 d = m.x_cell[c] - m.x_vertex[v];
      by_azimuth[j] = {std::atan2(d.dot(north), d.dot(east)), c};
    }
    std::sort(by_azimuth.begin(), by_azimuth.end());
    for (int j = 0; j < 3; ++j) m.cells_on_vertex(v, j) = by_azimuth[j].second;
    // edges_on_vertex(v, j) joins cells j and j+1: one of the triangle's
    // three edges.
    for (int j = 0; j < 3; ++j) {
      const auto [a, b] =
          std::minmax(m.cells_on_vertex(v, j), m.cells_on_vertex(v, (j + 1) % 3));
      Index found = kInvalidIndex;
      for (const Index e : tri_edges[v])
        if (edge_cells[e][0] == a && edge_cells[e][1] == b) found = e;
      MPAS_CHECK_MSG(found != kInvalidIndex, "missing edge between vertex cells");
      m.edges_on_vertex(v, j) = found;
    }
    // Sign: +1 when the edge normal points counterclockwise around v.
    for (int j = 0; j < 3; ++j) {
      const Index e = m.edges_on_vertex(v, j);
      const Vec3 ccw = m.x_vertex[v].normalized().cross(m.x_edge[e] -
                                                        m.x_vertex[v]);
      m.edge_sign_on_vertex(v, j) = m.edge_normal[e].dot(ccw) > 0 ? 1.0 : -1.0;
    }
  }

  // --- kite areas, cell/triangle areas, TRiSK weights ----------------------
  build_trisk_arrays(m);
  return m;
}

VoronoiMesh build_voronoi_mesh(const TriMesh& tri, Real sphere_radius) {
  MPAS_CHECK(tri.num_points() >= 12);
  MPAS_CHECK(sphere_radius > 0);
  VoronoiMesh m = build_voronoimesh_impl(tri, sphere_radius);
  const MeshOrder order = hilbert_order(m);
  renumber(m, order.cell, order.edge, order.vertex);
  // Functions of one point each: computed in the final order rather than
  // moved there.
  fill_geo(m.x_cell, m.lat_cell, m.lon_cell, m.f_cell);
  fill_geo(m.x_edge, m.lat_edge, m.lon_edge, m.f_edge);
  fill_geo(m.x_vertex, m.lat_vertex, m.lon_vertex, m.f_vertex);
  return m;
}

}  // namespace mpas::mesh
