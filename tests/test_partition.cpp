// Tests for domain decomposition: RCB balance, halo construction, prefix
// orderings, and exchange-plan consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "mesh/mesh_cache.hpp"
#include "partition/halo.hpp"
#include "partition/partitioner.hpp"

namespace mpas::partition {
namespace {

class PartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionTest, RcbCoversAllCellsOnce) {
  const auto mesh = mesh::get_global_mesh(4);
  const int parts = GetParam();
  const Partition p = partition_cells_rcb(*mesh, parts);
  EXPECT_EQ(p.num_parts, parts);
  std::size_t total = 0;
  for (const auto& cells : p.cells_of) total += cells.size();
  EXPECT_EQ(total, static_cast<std::size_t>(mesh->num_cells));
  for (Index c = 0; c < mesh->num_cells; ++c) {
    const int o = p.owner_of_cell[static_cast<std::size_t>(c)];
    EXPECT_GE(o, 0);
    EXPECT_LT(o, parts);
  }
}

TEST_P(PartitionTest, RcbIsWellBalanced) {
  const auto mesh = mesh::get_global_mesh(4);
  const Partition p = partition_cells_rcb(*mesh, GetParam());
  const PartitionQuality q = evaluate_partition(*mesh, p);
  // RCB splits counts exactly up to integer granularity (~1 cell/part).
  EXPECT_LT(q.imbalance, 0.02 + 2.0 * GetParam() / mesh->num_cells);
  EXPECT_GT(q.cut_edges, 0);
}

TEST_P(PartitionTest, CutFractionIsSurfaceLike) {
  // Compact patches: the cut should scale like parts^(1/2) * sqrt(cells),
  // i.e. stay a small fraction of all edges for modest part counts.
  const auto mesh = mesh::get_global_mesh(5);
  const Partition p = partition_cells_rcb(*mesh, GetParam());
  const PartitionQuality q = evaluate_partition(*mesh, p);
  const Real frac = static_cast<Real>(q.cut_edges) / mesh->num_edges;
  EXPECT_LT(frac, 0.05 * std::sqrt(static_cast<Real>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(PartCounts, PartitionTest,
                         ::testing::Values(2, 3, 4, 7, 8, 16, 64));

TEST(Partition, SinglePartHasNoCut) {
  const auto mesh = mesh::get_global_mesh(3);
  const Partition p = partition_cells_rcb(*mesh, 1);
  const PartitionQuality q = evaluate_partition(*mesh, p);
  EXPECT_EQ(q.cut_edges, 0);
  EXPECT_EQ(q.max_neighbors, 0);
}

TEST(Partition, EdgeAndVertexOwnersAreAdjacent) {
  const auto mesh = mesh::get_global_mesh(3);
  const Partition p = partition_cells_rcb(*mesh, 8);
  for (Index e = 0; e < mesh->num_edges; ++e) {
    const int o = p.owner_of_edge(*mesh, e);
    EXPECT_TRUE(
        o == p.owner_of_cell[static_cast<std::size_t>(mesh->cells_on_edge(e, 0))] ||
        o == p.owner_of_cell[static_cast<std::size_t>(mesh->cells_on_edge(e, 1))]);
  }
  for (Index v = 0; v < mesh->num_vertices; ++v) {
    const int o = p.owner_of_vertex(*mesh, v);
    bool adjacent = false;
    for (int j = 0; j < mesh::VoronoiMesh::kVertexDegree; ++j)
      adjacent |= o == p.owner_of_cell[static_cast<std::size_t>(
                           mesh->cells_on_vertex(v, j))];
    EXPECT_TRUE(adjacent);
  }
}

class HaloTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mesh = mesh::get_global_mesh(3);
    part = partition_cells_rcb(*mesh, 4);
    for (int r = 0; r < 4; ++r)
      locals.push_back(build_local_mesh(*mesh, part, r));
  }
  std::shared_ptr<const mesh::VoronoiMesh> mesh;
  Partition part;
  std::vector<LocalMesh> locals;
};

TEST_F(HaloTest, OwnedPrefixesMatchPartition) {
  for (int r = 0; r < 4; ++r) {
    const LocalMesh& lm = locals[static_cast<std::size_t>(r)];
    EXPECT_EQ(lm.num_owned_cells,
              static_cast<Index>(part.cells_of[static_cast<std::size_t>(r)].size()));
    for (Index i = 0; i < lm.num_owned_cells; ++i) {
      EXPECT_EQ(lm.cell_layer[static_cast<std::size_t>(i)], 0);
      EXPECT_EQ(part.owner_of_cell[static_cast<std::size_t>(
                    lm.mesh.global_cell_id[static_cast<std::size_t>(i)])],
                r);
    }
  }
}

TEST_F(HaloTest, PrefixOrderingsAreMonotone) {
  for (const auto& lm : locals) {
    EXPECT_LT(0, lm.num_owned_cells);
    EXPECT_LE(lm.num_owned_cells, lm.num_compute_cells);
    EXPECT_LE(lm.num_compute_cells, lm.mesh.num_cells);
    EXPECT_LT(0, lm.num_owned_edges);
    EXPECT_LE(lm.num_owned_edges, lm.num_inner_edges);
    EXPECT_LE(lm.num_inner_edges, lm.num_compute_edges);
    EXPECT_LE(lm.num_compute_edges, lm.mesh.num_edges);
    EXPECT_LE(lm.num_compute_vertices, lm.mesh.num_vertices);
    // Layers are non-decreasing through the cell array.
    for (std::size_t i = 1; i < lm.cell_layer.size(); ++i)
      EXPECT_LE(lm.cell_layer[i - 1], lm.cell_layer[i]);
  }
}

TEST_F(HaloTest, EveryOwnedEntityAppearsExactlyOnceGlobally) {
  std::set<GlobalIndex> owned_cells, owned_edges;
  for (const auto& lm : locals) {
    for (Index i = 0; i < lm.num_owned_cells; ++i)
      EXPECT_TRUE(
          owned_cells.insert(lm.mesh.global_cell_id[static_cast<std::size_t>(i)])
              .second);
    for (Index i = 0; i < lm.num_owned_edges; ++i)
      EXPECT_TRUE(
          owned_edges.insert(lm.mesh.global_edge_id[static_cast<std::size_t>(i)])
              .second);
  }
  EXPECT_EQ(owned_cells.size(), static_cast<std::size_t>(mesh->num_cells));
  EXPECT_EQ(owned_edges.size(), static_cast<std::size_t>(mesh->num_edges));
}

TEST_F(HaloTest, ComputeRangesHaveCompleteConnectivity) {
  for (const auto& lm : locals) {
    const auto& m = lm.mesh;
    // Compute cells: all edges/vertices/neighbour cells present.
    for (Index c = 0; c < lm.num_compute_cells; ++c)
      for (Index j = 0; j < m.n_edges_on_cell[c]; ++j) {
        EXPECT_NE(m.edges_on_cell(c, j), kInvalidIndex);
        EXPECT_NE(m.cells_on_cell(c, j), kInvalidIndex);
        EXPECT_NE(m.vertices_on_cell(c, j), kInvalidIndex);
      }
    // Compute edges: both cells present.
    for (Index e = 0; e < lm.num_compute_edges; ++e) {
      EXPECT_NE(m.cells_on_edge(e, 0), kInvalidIndex);
      EXPECT_NE(m.cells_on_edge(e, 1), kInvalidIndex);
    }
    // Inner edges additionally have all edgesOnEdge present.
    for (Index e = 0; e < lm.num_inner_edges; ++e)
      for (Index j = 0; j < m.n_edges_on_edge[e]; ++j)
        EXPECT_NE(m.edges_on_edge(e, j), kInvalidIndex);
    // Compute vertices: all cells and edges present.
    for (Index v = 0; v < lm.num_compute_vertices; ++v)
      for (int j = 0; j < mesh::VoronoiMesh::kVertexDegree; ++j) {
        EXPECT_NE(m.cells_on_vertex(v, j), kInvalidIndex);
        EXPECT_NE(m.edges_on_vertex(v, j), kInvalidIndex);
      }
  }
}

TEST_F(HaloTest, ExchangePlansAreAlignedAndComplete) {
  const auto plans = build_exchange_plans(*mesh, part, locals);
  // Aligned: r's recv list from o has the same length as o's send list to r.
  for (int r = 0; r < 4; ++r) {
    for (const auto& peer : plans[static_cast<std::size_t>(r)].peers) {
      const auto& other = plans[static_cast<std::size_t>(peer.rank)];
      const ExchangePlan::Peer* back = nullptr;
      for (const auto& q : other.peers)
        if (q.rank == r) back = &q;
      ASSERT_NE(back, nullptr);
      EXPECT_EQ(peer.recv_cells.size(), back->send_cells.size());
      EXPECT_EQ(peer.recv_edges.size(), back->send_edges.size());
      // Same global ids in the same order.
      const auto& lm = locals[static_cast<std::size_t>(r)];
      const auto& om = locals[static_cast<std::size_t>(peer.rank)];
      for (std::size_t i = 0; i < peer.recv_cells.size(); ++i)
        EXPECT_EQ(lm.mesh.global_cell_id[static_cast<std::size_t>(
                      peer.recv_cells[i])],
                  om.mesh.global_cell_id[static_cast<std::size_t>(
                      back->send_cells[i])]);
    }
    // Complete: every halo entity is received exactly once.
    const auto& lm = locals[static_cast<std::size_t>(r)];
    std::set<Index> received;
    for (const auto& peer : plans[static_cast<std::size_t>(r)].peers)
      for (Index i : peer.recv_cells) EXPECT_TRUE(received.insert(i).second);
    EXPECT_EQ(static_cast<Index>(received.size()),
              lm.mesh.num_cells - lm.num_owned_cells);
  }
}

TEST_F(HaloTest, HaloBytesArePositiveAndSurfaceLike) {
  const auto plans = build_exchange_plans(*mesh, part, locals);
  for (const auto& plan : plans) {
    EXPECT_GT(plan.halo_bytes(MeshLocation::Cell), 0);
    EXPECT_GT(plan.halo_bytes(MeshLocation::Edge), 0);
    EXPECT_GT(plan.num_neighbors(), 0);
    // Halo is a small multiple of the patch boundary, far below volume.
    const auto& lm = locals[0];
    EXPECT_LT(plan.recv_cell_count(), lm.num_owned_cells);
  }
}

TEST(Halo, LocalMeshesKeepTheirBoundaryEdgeIds) {
  // Every local copy of a global boundary edge is listed, ascending, by its
  // local id, so enforce_boundary_edge finds it on every rank.
  mesh::VoronoiMesh global = mesh::build_icosahedral_voronoi_mesh(3);
  global.boundary_edges = {0, 11, 200, global.num_edges - 1};
  const Partition p = partition_cells_rcb(global, 3);
  std::set<Index> seen;
  for (int r = 0; r < 3; ++r) {
    const LocalMesh lm = build_local_mesh(global, p, r);
    std::vector<Index> want;
    for (Index i = 0; i < lm.mesh.num_edges; ++i) {
      const GlobalIndex ge = lm.mesh.global_edge_id[static_cast<std::size_t>(i)];
      if (std::count(global.boundary_edges.begin(), global.boundary_edges.end(),
                     ge) != 0) {
        want.push_back(i);
        if (i < lm.num_owned_edges) seen.insert(static_cast<Index>(ge));
      }
    }
    EXPECT_EQ(lm.mesh.boundary_edges, want) << "rank " << r;
  }
  // Each boundary edge is owned by exactly one rank.
  EXPECT_EQ(seen.size(), global.boundary_edges.size());
}

TEST(Halo, RequiresTwoLayers) {
  const auto mesh = mesh::get_global_mesh(2);
  const Partition p = partition_cells_rcb(*mesh, 2);
  EXPECT_THROW(build_local_mesh(*mesh, p, 0, 1), Error);
}

}  // namespace
}  // namespace mpas::partition
