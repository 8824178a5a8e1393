// The MPAS-style C-staggered spherical Voronoi mesh.
//
// Naming and semantics follow the MPAS mesh specification (0-based here):
// cells are the Voronoi regions (mass points at generators), vertices are
// Delaunay-triangle circumcenters (vorticity points), edges are the shared
// faces between two Voronoi cells (velocity points).
//
// Conventions fixed by this reproduction (validated by mesh_checks.cpp):
//  * The unit normal of edge e points from cells_on_edge(e,0) to
//    cells_on_edge(e,1).
//  * The unit tangent of edge e is r_hat x n_hat (90 deg counterclockwise
//    seen from outside); vertices_on_edge is ordered so the tangent points
//    from vertices_on_edge(e,0) to vertices_on_edge(e,1).
//  * edges_on_cell / cells_on_cell / vertices_on_cell are counterclockwise;
//    vertices_on_cell(c,j) is the vertex shared by edges_on_cell(c,j) and
//    edges_on_cell(c,j+1 mod n).
//  * cells_on_vertex / edges_on_vertex are counterclockwise;
//    edges_on_vertex(v,j) connects cells_on_vertex(v,j) and
//    cells_on_vertex(v,j+1 mod 3).
//  * edge_sign_on_cell(c,j) = +1 when the normal of edges_on_cell(c,j)
//    points out of cell c; the discrete divergence is
//    (1/areaCell) * sum_j sign * u * dvEdge.
//  * edge_sign_on_vertex(v,j) = +1 when the normal of edges_on_vertex(v,j)
//    points counterclockwise around vertex v; the discrete relative
//    vorticity is (1/areaTriangle) * sum_j sign * u * dcEdge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/aligned_vector.hpp"
#include "util/array2d.hpp"
#include "util/types.hpp"
#include "util/vec3.hpp"

namespace mpas::mesh {

struct TriMesh;

class VoronoiMesh {
 public:
  static constexpr Index kMaxEdges = 6;        // hexagons + 12 pentagons
  static constexpr Index kVertexDegree = 3;    // SCVT duals are triangular
  static constexpr Index kMaxEdgesOnEdge = 2 * (kMaxEdges - 1);

  // --- sizes -------------------------------------------------------------
  Index num_cells = 0;
  Index num_edges = 0;
  Index num_vertices = 0;

  /// Sphere radius in meters; all geometric arrays below are in meters (or
  /// m^2) on the sphere of this radius.
  Real sphere_radius = constants::kEarthRadius;

  /// Subdivision level the mesh was generated from (-1 if unknown), and the
  /// nominal resolution label used by the paper ("120-km", ...).
  int subdivision_level = -1;

  // --- point coordinates (unit sphere) -----------------------------------
  std::vector<Vec3> x_cell;
  std::vector<Vec3> x_edge;
  std::vector<Vec3> x_vertex;

  // --- cell connectivity (padded with kInvalidIndex past n_edges_on_cell) -
  AlignedVector<Index> n_edges_on_cell;       // [num_cells], 5 or 6
  Array2D<Index> edges_on_cell;               // [num_cells][kMaxEdges]
  Array2D<Index> cells_on_cell;               // [num_cells][kMaxEdges]
  Array2D<Index> vertices_on_cell;            // [num_cells][kMaxEdges]
  Array2D<Real> edge_sign_on_cell;            // [num_cells][kMaxEdges]

  // --- edge connectivity ---------------------------------------------------
  Array2D<Index> cells_on_edge;               // [num_edges][2]
  Array2D<Index> vertices_on_edge;            // [num_edges][2]
  AlignedVector<Index> n_edges_on_edge;       // [num_edges]
  Array2D<Index> edges_on_edge;               // [num_edges][kMaxEdgesOnEdge]
  Array2D<Real> weights_on_edge;              // [num_edges][kMaxEdgesOnEdge]

  // --- vertex connectivity -------------------------------------------------
  Array2D<Index> cells_on_vertex;             // [num_vertices][3]
  Array2D<Index> edges_on_vertex;             // [num_vertices][3]
  Array2D<Real> edge_sign_on_vertex;          // [num_vertices][3]
  Array2D<Real> kite_areas_on_vertex;         // [num_vertices][3], m^2
  /// kite_areas_on_cell(c, j) is the kite shared by cell c and
  /// vertices_on_cell(c, j) — the same areas as kite_areas_on_vertex,
  /// indexed from the cell side for the cell<-vertices patterns.
  Array2D<Real> kite_areas_on_cell;           // [num_cells][kMaxEdges]

  // --- metrics -------------------------------------------------------------
  AlignedVector<Real> dc_edge;                // distance between cell centers
  AlignedVector<Real> dv_edge;                // distance between vertices
  AlignedVector<Real> area_cell;              // Voronoi cell area
  AlignedVector<Real> area_triangle;          // dual (Delaunay) cell area

  // --- physics helpers -------------------------------------------------------
  AlignedVector<Real> f_cell;                 // Coriolis parameter 2*Omega*sin(lat)
  AlignedVector<Real> f_edge;
  AlignedVector<Real> f_vertex;
  AlignedVector<Real> lat_cell, lon_cell;
  AlignedVector<Real> lat_edge, lon_edge;
  AlignedVector<Real> lat_vertex, lon_vertex;
  /// Ids of the boundary edges, ascending (none on the full sphere), so a
  /// kernel visits only these instead of scanning a mask of every edge.
  std::vector<Index> boundary_edges;

  /// Unit normal / tangent of each edge in the local tangent plane.
  std::vector<Vec3> edge_normal;
  std::vector<Vec3> edge_tangent;

  /// Global ids when this mesh is a partition-local view (empty otherwise).
  std::vector<GlobalIndex> global_cell_id;
  std::vector<GlobalIndex> global_edge_id;
  std::vector<GlobalIndex> global_vertex_id;

  // -------------------------------------------------------------------------
  [[nodiscard]] std::string resolution_label() const;

  /// Nominal grid spacing in km: mean of dc_edge converted to km.
  [[nodiscard]] Real nominal_resolution_km() const;

  /// Total bytes of all connectivity + metric arrays (used by the offload
  /// transfer accounting: this is the "mesh data" that stays resident).
  [[nodiscard]] std::size_t mesh_data_bytes() const;

  /// Throws mpas::Error with a descriptive message if any structural or
  /// geometric invariant is violated. `strict` additionally enforces
  /// quasi-uniformity bounds that only hold for full icosahedral spheres.
  void validate(bool strict = true) const;
};

/// Build the full Voronoi mesh (dual of `tri`) on a sphere of radius
/// `sphere_radius` meters. This computes every connectivity and metric array
/// above, including the TRiSK tangential-velocity reconstruction weights,
/// and returns the entities in the Hilbert order of mesh/renumber.hpp.
VoronoiMesh build_voronoi_mesh(const TriMesh& tri,
                               Real sphere_radius = constants::kEarthRadius);

/// Resolution label used by the paper for a given subdivision level
/// (6 -> "120-km", 7 -> "60-km", 8 -> "30-km", 9 -> "15-km").
std::string resolution_label_for_level(int level);

}  // namespace mpas::mesh
