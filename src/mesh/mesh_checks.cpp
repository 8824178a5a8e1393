// Structural and mimetic invariant checks for VoronoiMesh. `validate()` is
// cheap enough to run after every mesh build/load: it touches each entity a
// constant number of times.
#include <cmath>
#include <random>

#include "mesh/mesh.hpp"
#include "util/error.hpp"

namespace mpas::mesh {

void VoronoiMesh::validate(bool strict) const {
  MPAS_CHECK(num_cells > 0 && num_edges > 0 && num_vertices > 0);

  // Euler characteristic of the sphere: F - E + V = 2 with Voronoi cells as
  // faces and triangle circumcenters as vertices.
  MPAS_CHECK_MSG(num_cells + num_vertices - num_edges == 2,
                 "Euler formula violated: " << num_cells << " cells, "
                                            << num_edges << " edges, "
                                            << num_vertices << " vertices");

  MPAS_CHECK(static_cast<Index>(x_cell.size()) == num_cells);
  MPAS_CHECK(static_cast<Index>(x_edge.size()) == num_edges);
  MPAS_CHECK(static_cast<Index>(x_vertex.size()) == num_vertices);
  MPAS_CHECK(cells_on_edge.rows() == num_edges && cells_on_edge.cols() == 2);
  MPAS_CHECK(vertices_on_edge.rows() == num_edges);
  MPAS_CHECK(edges_on_cell.rows() == num_cells);
  MPAS_CHECK(cells_on_vertex.rows() == num_vertices);
  for (std::size_t i = 0; i < boundary_edges.size(); ++i)
    MPAS_CHECK_MSG(boundary_edges[i] >= 0 && boundary_edges[i] < num_edges &&
                       (i == 0 || boundary_edges[i - 1] < boundary_edges[i]),
                   "boundary_edges must be ascending edge ids");

  Index pentagons = 0;
  for (Index c = 0; c < num_cells; ++c) {
    const Index deg = n_edges_on_cell[c];
    MPAS_CHECK_MSG(deg >= 5 && deg <= kMaxEdges, "bad cell degree");
    if (deg == 5) ++pentagons;
    for (Index j = 0; j < deg; ++j) {
      const Index e = edges_on_cell(c, j);
      MPAS_CHECK(e >= 0 && e < num_edges);
      MPAS_CHECK_MSG(cells_on_edge(e, 0) == c || cells_on_edge(e, 1) == c,
                     "edges_on_cell inconsistent with cells_on_edge");
      const Real sign = edge_sign_on_cell(c, j);
      MPAS_CHECK(sign == 1.0 || sign == -1.0);
      MPAS_CHECK_MSG(sign == (cells_on_edge(e, 0) == c ? 1.0 : -1.0),
                     "edge_sign_on_cell does not encode the outward normal");
      // vertices_on_cell(c, j) must be shared by edges j and j+1.
      const Index v = vertices_on_cell(c, j);
      const Index e2 = edges_on_cell(c, (j + 1) % deg);
      auto touches = [&](Index edge, Index vertex) {
        return vertices_on_edge(edge, 0) == vertex ||
               vertices_on_edge(edge, 1) == vertex;
      };
      MPAS_CHECK_MSG(touches(e, v) && touches(e2, v),
                     "vertices_on_cell ordering broken at cell " << c);
    }
  }
  if (strict)
    MPAS_CHECK_MSG(pentagons == 12,
                   "icosahedral sphere must have exactly 12 pentagons, got "
                       << pentagons);

  for (Index e = 0; e < num_edges; ++e) {
    MPAS_CHECK(cells_on_edge(e, 0) != cells_on_edge(e, 1));
    MPAS_CHECK(vertices_on_edge(e, 0) != vertices_on_edge(e, 1));
    MPAS_CHECK(dc_edge[e] > 0 && dv_edge[e] > 0);
    // Tangent convention: vertices_on_edge ordered along r_hat x n_hat.
    const Vec3 dv = x_vertex[vertices_on_edge(e, 1)] -
                    x_vertex[vertices_on_edge(e, 0)];
    MPAS_CHECK_MSG(dv.dot(edge_tangent[e]) > 0, "edge tangent convention");
  }

  for (Index v = 0; v < num_vertices; ++v) {
    MPAS_CHECK(area_triangle[v] > 0);
    for (int j = 0; j < kVertexDegree; ++j) {
      const Index e = edges_on_vertex(v, j);
      const Index ca = cells_on_vertex(v, j);
      const Index cb = cells_on_vertex(v, (j + 1) % 3);
      MPAS_CHECK_MSG((cells_on_edge(e, 0) == ca && cells_on_edge(e, 1) == cb) ||
                         (cells_on_edge(e, 0) == cb && cells_on_edge(e, 1) == ca),
                     "edges_on_vertex ordering broken at vertex " << v);
      MPAS_CHECK(kite_areas_on_vertex(v, j) > 0);
    }
  }

  // Mimetic check: the discrete curl of a discrete gradient vanishes
  // identically. With grad(psi)_e = (psi(c1)-psi(c0))/dcEdge and vorticity
  // zeta_v = (1/A_v) sum_j sign(v,j) * grad_e * dcEdge, the sum telescopes
  // around the triangle, so it must be zero for *any* psi (up to rounding).
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<Real> dist(-1.0, 1.0);
  std::vector<Real> psi(num_cells);
  for (auto& p : psi) p = dist(rng);
  Real max_curl_grad = 0;
  for (Index v = 0; v < num_vertices; ++v) {
    Real circ = 0;
    for (int j = 0; j < kVertexDegree; ++j) {
      const Index e = edges_on_vertex(v, j);
      const Real grad = psi[cells_on_edge(e, 1)] - psi[cells_on_edge(e, 0)];
      circ += edge_sign_on_vertex(v, j) * grad;
    }
    max_curl_grad = std::max(max_curl_grad, std::abs(circ));
  }
  MPAS_CHECK_MSG(max_curl_grad < 1e-12,
                 "curl(grad) not identically zero: " << max_curl_grad
                                                     << " — edge/vertex sign "
                                                        "conventions broken");

  // Total areas must both tile the sphere (kites are exact by construction).
  const Real sphere_area =
      4.0 * constants::kPi * sphere_radius * sphere_radius;
  Real cell_total = 0, tri_total = 0;
  for (Index c = 0; c < num_cells; ++c) {
    MPAS_CHECK(area_cell[c] > 0);
    cell_total += area_cell[c];
  }
  for (Index v = 0; v < num_vertices; ++v) tri_total += area_triangle[v];
  MPAS_CHECK_MSG(std::abs(cell_total / sphere_area - 1.0) < 1e-9,
                 "cell areas do not tile the sphere: " << cell_total << " vs "
                                                       << sphere_area);
  MPAS_CHECK_MSG(std::abs(tri_total / sphere_area - 1.0) < 1e-9,
                 "triangle areas do not tile the sphere");

  if (strict) {
    // Quasi-uniformity: the icosahedral meshes of the paper have bounded
    // spacing variation.
    Real dc_min = dc_edge[0], dc_max = dc_edge[0];
    for (Index e = 0; e < num_edges; ++e) {
      dc_min = std::min(dc_min, dc_edge[e]);
      dc_max = std::max(dc_max, dc_edge[e]);
    }
    MPAS_CHECK_MSG(dc_max / dc_min < 2.5, "mesh not quasi-uniform");
  }
}

}  // namespace mpas::mesh
