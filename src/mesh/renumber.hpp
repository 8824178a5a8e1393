// Entity order of the Voronoi mesh.
//
// The kernels gather through index lists (edges_on_cell, edges_on_edge,
// ...), so the distance in memory between an entity and its neighbours
// decides how many of those loads miss the cache. build_voronoi_mesh puts
// every mesh in a locality-preserving order once, in place:
//   cells     along a Hilbert curve over the cube-face projection of x_cell;
//   edges     in first-touch order along edges_on_cell, in that cell order;
//   vertices  in first-touch order along vertices_on_edge, in that edge
//             order.
// Renumbering is a pure relabelling: every neighbour list keeps its slot
// order and every edge its orientation (cells_on_edge(e,0) stays the same
// cell), so each gather kernel sums the same terms in the same order and a
// run on the renumbered mesh equals the run on the original bit for bit
// under the inverse permutation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/mesh.hpp"

namespace mpas::mesh {

/// A relabelling of all three entity sets: old entity i becomes new entity
/// cell[i] (edge[i], vertex[i]). Each vector is a permutation of 0..n-1.
struct MeshOrder {
  std::vector<Index> cell;
  std::vector<Index> edge;
  std::vector<Index> vertex;
};

/// Relabel every entity of `m` in place: each per-entity array is moved
/// along the cycles of its permutation (no per-array temporaries), and
/// every index value is mapped to the new labels. boundary_edges stays
/// sorted. Throws mpas::Error if a vector is not a permutation of the
/// matching entity count.
void renumber(VoronoiMesh& m, std::span<const Index> cell_perm,
              std::span<const Index> edge_perm,
              std::span<const Index> vertex_perm);

/// Position of unit vector `x` along a Hilbert curve drawn on each face of
/// the cube the sphere is projected onto, faces visited in a fixed order.
std::uint64_t cube_hilbert_key(const Vec3& x);

/// The cache-friendly order described above, for a mesh in any order.
MeshOrder hilbert_order(const VoronoiMesh& m);

}  // namespace mpas::mesh
