#include "partition/halo.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/error.hpp"

namespace mpas::partition {

namespace {

/// Copy the global mesh's per-entity data into the local view, remapping
/// connectivity. Absent entities become kInvalidIndex.
void fill_local_arrays(const mesh::VoronoiMesh& g, LocalMesh& lm,
                       const std::vector<Index>& cells,
                       const std::vector<Index>& edges,
                       const std::vector<Index>& vertices) {
  mesh::VoronoiMesh& m = lm.mesh;
  m.num_cells = static_cast<Index>(cells.size());
  m.num_edges = static_cast<Index>(edges.size());
  m.num_vertices = static_cast<Index>(vertices.size());
  m.sphere_radius = g.sphere_radius;
  m.subdivision_level = g.subdivision_level;

  std::unordered_map<GlobalIndex, Index> vertex_local;
  for (Index i = 0; i < m.num_cells; ++i) lm.cell_local[cells[i]] = i;
  for (Index i = 0; i < m.num_edges; ++i) lm.edge_local[edges[i]] = i;
  for (Index i = 0; i < m.num_vertices; ++i) vertex_local[vertices[i]] = i;

  auto lcell = [&](Index gc) {
    auto it = lm.cell_local.find(gc);
    return it == lm.cell_local.end() ? kInvalidIndex : it->second;
  };
  auto ledge = [&](Index ge) {
    auto it = lm.edge_local.find(ge);
    return it == lm.edge_local.end() ? kInvalidIndex : it->second;
  };
  auto lvertex = [&](Index gv) {
    auto it = vertex_local.find(gv);
    return it == vertex_local.end() ? kInvalidIndex : it->second;
  };

  m.global_cell_id.assign(cells.begin(), cells.end());
  m.global_edge_id.assign(edges.begin(), edges.end());
  m.global_vertex_id.assign(vertices.begin(), vertices.end());

  // --- cells -----------------------------------------------------------
  const Index me = mesh::VoronoiMesh::kMaxEdges;
  m.x_cell.resize(cells.size());
  m.n_edges_on_cell.resize(cells.size());
  m.edges_on_cell.resize(m.num_cells, me, kInvalidIndex);
  m.cells_on_cell.resize(m.num_cells, me, kInvalidIndex);
  m.vertices_on_cell.resize(m.num_cells, me, kInvalidIndex);
  m.edge_sign_on_cell.resize(m.num_cells, me, 0.0);
  m.kite_areas_on_cell.resize(m.num_cells, me, 0.0);
  m.area_cell.resize(cells.size());
  m.f_cell.resize(cells.size());
  m.lat_cell.resize(cells.size());
  m.lon_cell.resize(cells.size());
  for (Index i = 0; i < m.num_cells; ++i) {
    const Index gc = cells[i];
    m.x_cell[i] = g.x_cell[gc];
    m.n_edges_on_cell[i] = g.n_edges_on_cell[gc];
    m.area_cell[i] = g.area_cell[gc];
    m.f_cell[i] = g.f_cell[gc];
    m.lat_cell[i] = g.lat_cell[gc];
    m.lon_cell[i] = g.lon_cell[gc];
    for (Index j = 0; j < g.n_edges_on_cell[gc]; ++j) {
      m.edges_on_cell(i, j) = ledge(g.edges_on_cell(gc, j));
      m.cells_on_cell(i, j) = lcell(g.cells_on_cell(gc, j));
      m.vertices_on_cell(i, j) = lvertex(g.vertices_on_cell(gc, j));
      m.edge_sign_on_cell(i, j) = g.edge_sign_on_cell(gc, j);
      m.kite_areas_on_cell(i, j) = g.kite_areas_on_cell(gc, j);
    }
  }

  // --- edges -----------------------------------------------------------
  const Index meoe = mesh::VoronoiMesh::kMaxEdgesOnEdge;
  m.x_edge.resize(edges.size());
  m.cells_on_edge.resize(m.num_edges, 2, kInvalidIndex);
  m.vertices_on_edge.resize(m.num_edges, 2, kInvalidIndex);
  m.n_edges_on_edge.resize(edges.size());
  m.edges_on_edge.resize(m.num_edges, meoe, kInvalidIndex);
  m.weights_on_edge.resize(m.num_edges, meoe, 0.0);
  m.dc_edge.resize(edges.size());
  m.dv_edge.resize(edges.size());
  m.f_edge.resize(edges.size());
  m.lat_edge.resize(edges.size());
  m.lon_edge.resize(edges.size());
  m.edge_normal.resize(edges.size());
  m.edge_tangent.resize(edges.size());
  for (Index i = 0; i < m.num_edges; ++i) {
    const Index ge = edges[i];
    m.x_edge[i] = g.x_edge[ge];
    m.dc_edge[i] = g.dc_edge[ge];
    m.dv_edge[i] = g.dv_edge[ge];
    m.f_edge[i] = g.f_edge[ge];
    m.lat_edge[i] = g.lat_edge[ge];
    m.lon_edge[i] = g.lon_edge[ge];
    if (std::binary_search(g.boundary_edges.begin(), g.boundary_edges.end(),
                           ge))
      m.boundary_edges.push_back(i);  // ascending: i increases
    m.edge_normal[i] = g.edge_normal[ge];
    m.edge_tangent[i] = g.edge_tangent[ge];
    for (int k = 0; k < 2; ++k) {
      m.cells_on_edge(i, k) = lcell(g.cells_on_edge(ge, k));
      m.vertices_on_edge(i, k) = lvertex(g.vertices_on_edge(ge, k));
    }
    m.n_edges_on_edge[i] = g.n_edges_on_edge[ge];
    for (Index j = 0; j < g.n_edges_on_edge[ge]; ++j) {
      m.edges_on_edge(i, j) = ledge(g.edges_on_edge(ge, j));
      m.weights_on_edge(i, j) = g.weights_on_edge(ge, j);
    }
  }

  // --- vertices ----------------------------------------------------------
  const int vd = mesh::VoronoiMesh::kVertexDegree;
  m.x_vertex.resize(vertices.size());
  m.cells_on_vertex.resize(m.num_vertices, vd, kInvalidIndex);
  m.edges_on_vertex.resize(m.num_vertices, vd, kInvalidIndex);
  m.edge_sign_on_vertex.resize(m.num_vertices, vd, 0.0);
  m.kite_areas_on_vertex.resize(m.num_vertices, vd, 0.0);
  m.area_triangle.resize(vertices.size());
  m.f_vertex.resize(vertices.size());
  m.lat_vertex.resize(vertices.size());
  m.lon_vertex.resize(vertices.size());
  for (Index i = 0; i < m.num_vertices; ++i) {
    const Index gv = vertices[i];
    m.x_vertex[i] = g.x_vertex[gv];
    m.area_triangle[i] = g.area_triangle[gv];
    m.f_vertex[i] = g.f_vertex[gv];
    m.lat_vertex[i] = g.lat_vertex[gv];
    m.lon_vertex[i] = g.lon_vertex[gv];
    for (int j = 0; j < vd; ++j) {
      m.cells_on_vertex(i, j) = lcell(g.cells_on_vertex(gv, j));
      m.edges_on_vertex(i, j) = ledge(g.edges_on_vertex(gv, j));
      m.edge_sign_on_vertex(i, j) = g.edge_sign_on_vertex(gv, j);
      m.kite_areas_on_vertex(i, j) = g.kite_areas_on_vertex(gv, j);
    }
  }
}

}  // namespace

LocalMesh build_local_mesh(const mesh::VoronoiMesh& g, const Partition& part,
                           int rank, int halo_layers) {
  MPAS_CHECK_MSG(halo_layers >= 2, "kernel ranges require >= 2 halo layers");
  MPAS_CHECK(rank >= 0 && rank < part.num_parts);

  LocalMesh lm;
  lm.rank = rank;

  // --- cell layers by BFS from the owned set ------------------------------
  std::vector<int> layer(static_cast<std::size_t>(g.num_cells), -1);
  std::vector<Index> cells;  // concatenated layers, each sorted by global id
  std::vector<Index> frontier = part.cells_of[static_cast<std::size_t>(rank)];
  std::sort(frontier.begin(), frontier.end());
  for (Index c : frontier) layer[static_cast<std::size_t>(c)] = 0;
  cells = frontier;
  lm.num_owned_cells = static_cast<Index>(frontier.size());

  for (int l = 1; l <= halo_layers; ++l) {
    std::set<Index> next;
    for (Index c : frontier)
      for (Index j = 0; j < g.n_edges_on_cell[c]; ++j) {
        const Index n = g.cells_on_cell(c, j);
        if (layer[static_cast<std::size_t>(n)] < 0) next.insert(n);
      }
    frontier.assign(next.begin(), next.end());
    for (Index c : frontier) layer[static_cast<std::size_t>(c)] = l;
    cells.insert(cells.end(), frontier.begin(), frontier.end());
    if (l == 1)
      lm.num_compute_cells =
          static_cast<Index>(cells.size());  // L0 + L1 prefix
  }

  lm.cell_layer.reserve(cells.size());
  for (Index c : cells)
    lm.cell_layer.push_back(layer[static_cast<std::size_t>(c)]);

  // --- edge classes ---------------------------------------------------------
  auto is_local_cell = [&](Index c) {
    return layer[static_cast<std::size_t>(c)] >= 0;
  };
  std::set<Index> edge_set;
  for (Index c : cells)
    for (Index j = 0; j < g.n_edges_on_cell[c]; ++j)
      edge_set.insert(g.edges_on_cell(c, j));

  auto edge_class = [&](Index e) {
    const Index c0 = g.cells_on_edge(e, 0);
    const Index c1 = g.cells_on_edge(e, 1);
    if (part.owner_of_edge(g, e) == rank) return 0;  // owned
    if (!is_local_cell(c0) || !is_local_cell(c1)) return 3;  // ghost
    const int l0 = layer[static_cast<std::size_t>(c0)];
    const int l1 = layer[static_cast<std::size_t>(c1)];
    if (l0 <= 1 && l1 <= 1) return 1;  // inner-compute (pv_edge range)
    return 2;                          // compute (h_edge/v ranges)
  };

  std::vector<Index> edges(edge_set.begin(), edge_set.end());
  std::stable_sort(edges.begin(), edges.end(), [&](Index a, Index b) {
    const int ca = edge_class(a), cb = edge_class(b);
    return ca < cb || (ca == cb && a < b);
  });
  for (Index e : edges) {
    const int c = edge_class(e);
    if (c == 0) ++lm.num_owned_edges;
    if (c <= 1) ++lm.num_inner_edges;
    if (c <= 2) ++lm.num_compute_edges;
  }
  // Owned edges must be inner-computable: their min-global cell is owned
  // here, so the other cell is in layer <= 1.
  for (Index i = 0; i < lm.num_owned_edges; ++i)
    MPAS_CHECK(edge_class(edges[static_cast<std::size_t>(i)]) == 0);

  // --- vertices ---------------------------------------------------------------
  auto vertex_complete = [&](Index v) {
    for (int j = 0; j < mesh::VoronoiMesh::kVertexDegree; ++j)
      if (!is_local_cell(g.cells_on_vertex(v, j))) return false;
    return true;
  };
  std::set<Index> vertex_set;
  for (Index c : cells)
    for (Index j = 0; j < g.n_edges_on_cell[c]; ++j)
      vertex_set.insert(g.vertices_on_cell(c, j));
  std::vector<Index> vertices(vertex_set.begin(), vertex_set.end());
  std::stable_sort(vertices.begin(), vertices.end(), [&](Index a, Index b) {
    const int ca = vertex_complete(a) ? 0 : 1;
    const int cb = vertex_complete(b) ? 0 : 1;
    return ca < cb || (ca == cb && a < b);
  });
  for (Index v : vertices)
    if (vertex_complete(v)) ++lm.num_compute_vertices;

  fill_local_arrays(g, lm, cells, edges, vertices);
  return lm;
}

std::int64_t ExchangePlan::recv_cell_count() const {
  std::int64_t n = 0;
  for (const auto& p : peers) n += static_cast<std::int64_t>(p.recv_cells.size());
  return n;
}

std::int64_t ExchangePlan::recv_edge_count() const {
  std::int64_t n = 0;
  for (const auto& p : peers) n += static_cast<std::int64_t>(p.recv_edges.size());
  return n;
}

std::int64_t ExchangePlan::halo_bytes(MeshLocation loc) const {
  switch (loc) {
    case MeshLocation::Cell:
      return recv_cell_count() * static_cast<std::int64_t>(sizeof(Real));
    case MeshLocation::Edge:
      return recv_edge_count() * static_cast<std::int64_t>(sizeof(Real));
    default: return 0;
  }
}

HaloStats compute_halo_stats(const mesh::VoronoiMesh& g, const Partition& part,
                             int rank, int halo_layers) {
  HaloStats s;
  std::unordered_map<Index, int> layer;
  std::vector<Index> frontier = part.cells_of[static_cast<std::size_t>(rank)];
  for (Index c : frontier) layer.emplace(c, 0);
  s.owned_cells = static_cast<Index>(frontier.size());
  for (int l = 1; l <= halo_layers; ++l) {
    std::set<Index> next;
    for (Index c : frontier)
      for (Index j = 0; j < g.n_edges_on_cell[c]; ++j) {
        const Index n = g.cells_on_cell(c, j);
        if (!layer.count(n)) next.insert(n);
      }
    frontier.assign(next.begin(), next.end());
    for (Index c : frontier) layer.emplace(c, l);
    s.halo_cells += static_cast<Index>(frontier.size());
    if (l == 1) s.compute_cells = s.owned_cells + static_cast<Index>(frontier.size());
  }

  std::set<Index> edges;
  std::set<int> neighbor_ranks;
  for (const auto& [c, l] : layer)
    for (Index j = 0; j < g.n_edges_on_cell[c]; ++j)
      edges.insert(g.edges_on_cell(c, j));
  for (Index e : edges) {
    if (part.owner_of_edge(g, e) == rank) ++s.owned_edges;
    else ++s.halo_edges;
  }
  for (const auto& [c, l] : layer) {
    const int o = part.owner_of_cell[static_cast<std::size_t>(c)];
    if (o != rank) neighbor_ranks.insert(o);
  }
  s.neighbors = static_cast<int>(neighbor_ranks.size());
  return s;
}

HaloStats worst_rank_halo_stats(const mesh::VoronoiMesh& g,
                                const Partition& part, int halo_layers) {
  int worst = 0;
  std::size_t most = 0;
  for (int r = 0; r < part.num_parts; ++r) {
    if (part.cells_of[static_cast<std::size_t>(r)].size() > most) {
      most = part.cells_of[static_cast<std::size_t>(r)].size();
      worst = r;
    }
  }
  return compute_halo_stats(g, part, worst, halo_layers);
}

std::vector<ExchangePlan> build_exchange_plans(
    const mesh::VoronoiMesh& global, const Partition& part,
    const std::vector<LocalMesh>& locals) {
  MPAS_CHECK(static_cast<int>(locals.size()) == part.num_parts);
  std::vector<ExchangePlan> plans(locals.size());
  // peer_map[r][o] -> index in plans[r].peers
  std::vector<std::map<int, std::size_t>> peer_of(locals.size());

  auto peer = [&](int r, int o) -> ExchangePlan::Peer& {
    auto& pm = peer_of[static_cast<std::size_t>(r)];
    auto it = pm.find(o);
    if (it == pm.end()) {
      plans[static_cast<std::size_t>(r)].peers.push_back({o, {}, {}, {}, {}});
      it = pm.emplace(o, plans[static_cast<std::size_t>(r)].peers.size() - 1)
               .first;
    }
    return plans[static_cast<std::size_t>(r)].peers[it->second];
  };

  for (int r = 0; r < part.num_parts; ++r) {
    const LocalMesh& lm = locals[static_cast<std::size_t>(r)];
    // Halo cells (everything past the owned prefix), in local order — both
    // sides push entries in the same (receiver, ascending local == global
    // order within layer groups) sequence, keeping lists index-aligned.
    for (Index i = lm.num_owned_cells; i < lm.mesh.num_cells; ++i) {
      const auto gc = lm.mesh.global_cell_id[static_cast<std::size_t>(i)];
      const int o = part.owner_of_cell[static_cast<std::size_t>(gc)];
      MPAS_CHECK(o != r);
      const LocalMesh& om = locals[static_cast<std::size_t>(o)];
      auto it = om.cell_local.find(gc);
      MPAS_CHECK_MSG(it != om.cell_local.end(),
                     "owner rank lost cell " << gc);
      peer(r, o).recv_cells.push_back(i);
      peer(o, r).send_cells.push_back(it->second);
    }
    for (Index i = lm.num_owned_edges; i < lm.mesh.num_edges; ++i) {
      const auto ge = lm.mesh.global_edge_id[static_cast<std::size_t>(i)];
      const int o = part.owner_of_edge(global, static_cast<Index>(ge));
      MPAS_CHECK(o != r);
      const LocalMesh& om = locals[static_cast<std::size_t>(o)];
      auto it = om.edge_local.find(ge);
      MPAS_CHECK_MSG(it != om.edge_local.end(),
                     "owner rank lost edge " << ge);
      peer(r, o).recv_edges.push_back(i);
      peer(o, r).send_edges.push_back(it->second);
    }
  }
  return plans;
}

}  // namespace mpas::partition
