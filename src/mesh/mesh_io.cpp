#include "mesh/mesh_io.hpp"

#include <cstring>
#include <fstream>

#include "util/error.hpp"

namespace mpas::mesh {

namespace {

constexpr char kMagic[8] = {'M', 'P', 'A', 'S', 'M', 'S', 'H', '1'};
// Version 5 added the payload checksum after the version word, so a
// bit-flipped or truncated cache file is detected on load instead of
// producing silently wrong connectivity. Version 6 hashes 8-byte words
// instead of single bytes, and its meshes are in the Hilbert entity order
// of mesh/renumber.hpp: a version-5 file is rebuilt, never reinterpreted.
constexpr std::uint32_t kVersion = 6;

/// FNV-1a over 8-byte words (a tail shorter than a word is mixed byte by
/// byte). Each step h = (h ^ w) * prime is a bijection in both h and w, so
/// any change to a single word always changes the hash.
class WordHash {
 public:
  void mix(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = hash_;
    for (; bytes >= sizeof(std::uint64_t); bytes -= sizeof(std::uint64_t)) {
      std::uint64_t word;
      std::memcpy(&word, p, sizeof word);
      h = (h ^ word) * kPrime;
      p += sizeof word;
    }
    for (; bytes > 0; --bytes) h = (h ^ *p++) * kPrime;
    hash_ = h;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

template <class T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
T read_pod(std::istream& is) {
  T value;
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  MPAS_CHECK_MSG(is.good(), "unexpected end of mesh file");
  return value;
}

/// Payload writer: every byte written is also hashed, one array at a time.
struct WriteCtx {
  std::ostream& os;
  WordHash hash;

  void put(const void* data, std::size_t bytes) {
    hash.mix(data, bytes);
    os.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  }
  template <class T>
  void pod(const T& value) {
    put(&value, sizeof(T));
  }
};

/// Payload reader with a byte budget: every element count read from the
/// file is bounds-checked against the bytes actually remaining *before*
/// any resize, so a truncated or bit-rotted length word fails closed
/// instead of demanding a multi-gigabyte allocation. Every byte read is
/// hashed.
struct ReadCtx {
  std::istream& is;
  std::uint64_t budget;  // payload bytes left in the file
  WordHash hash;

  void take(std::uint64_t bytes) {
    MPAS_CHECK_MSG(bytes <= budget,
                   "mesh file truncated: payload wants " << bytes
                       << " bytes but only " << budget << " remain");
    budget -= bytes;
  }

  /// take(count * elem_size) without the multiplication overflowing.
  void take_elems(std::uint64_t count, std::uint64_t elem_size) {
    MPAS_CHECK_MSG(count <= budget / elem_size,
                   "mesh file truncated: payload wants " << count
                       << " elements of " << elem_size << " bytes but only "
                       << budget << " bytes remain");
    budget -= count * elem_size;
  }

  /// Read `bytes` already taken from the budget.
  void get(void* data, std::size_t bytes) {
    is.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
    MPAS_CHECK_MSG(is.good(), "unexpected end of mesh file");
    hash.mix(data, bytes);
  }
};

template <class T>
T read_pod(ReadCtx& ctx) {
  ctx.take(sizeof(T));
  T value;
  ctx.get(&value, sizeof(T));
  return value;
}

template <class Vec>
void write_vector(WriteCtx& ctx, const Vec& v) {
  const std::uint64_t n = v.size();
  ctx.pod(n);
  if (n) ctx.put(v.data(), n * sizeof(typename Vec::value_type));
}

template <class Vec>
void read_vector(ReadCtx& ctx, Vec& v) {
  const auto n = read_pod<std::uint64_t>(ctx);
  ctx.take_elems(n, sizeof(typename Vec::value_type));  // before the resize
  v.resize(n);
  if (n) ctx.get(v.data(), n * sizeof(typename Vec::value_type));
}

template <class T>
void write_array2d(WriteCtx& ctx, const Array2D<T>& a) {
  ctx.pod(static_cast<std::int64_t>(a.rows()));
  ctx.pod(static_cast<std::int64_t>(a.cols()));
  if (a.size()) ctx.put(a.data(), a.size() * sizeof(T));
}

template <class T>
void read_array2d(ReadCtx& ctx, Array2D<T>& a) {
  const auto rows = read_pod<std::int64_t>(ctx);
  const auto cols = read_pod<std::int64_t>(ctx);
  MPAS_CHECK_MSG(rows >= 0 && cols >= 0,
                 "mesh file corrupt: negative array dimensions");
  const auto rows_u = static_cast<std::uint64_t>(rows);
  const auto cols_u = static_cast<std::uint64_t>(cols);
  // rows*cols*sizeof(T) <= budget, checked without the product overflowing.
  MPAS_CHECK_MSG(rows_u == 0 || cols_u <= ctx.budget / sizeof(T) / rows_u,
                 "mesh file truncated: payload wants a " << rows << "x" << cols
                     << " array but only " << ctx.budget << " bytes remain");
  ctx.budget -= rows_u * cols_u * sizeof(T);
  a.resize(static_cast<Index>(rows), static_cast<Index>(cols));
  if (a.size()) ctx.get(a.data(), a.size() * sizeof(T));
}

void write_payload(WriteCtx& os, const VoronoiMesh& m) {
  os.pod(m.num_cells);
  os.pod(m.num_edges);
  os.pod(m.num_vertices);
  os.pod(m.sphere_radius);
  os.pod(static_cast<std::int32_t>(m.subdivision_level));

  write_vector(os, m.x_cell);
  write_vector(os, m.x_edge);
  write_vector(os, m.x_vertex);
  write_vector(os, m.n_edges_on_cell);
  write_array2d(os, m.edges_on_cell);
  write_array2d(os, m.cells_on_cell);
  write_array2d(os, m.vertices_on_cell);
  write_array2d(os, m.edge_sign_on_cell);
  write_array2d(os, m.cells_on_edge);
  write_array2d(os, m.vertices_on_edge);
  write_vector(os, m.n_edges_on_edge);
  write_array2d(os, m.edges_on_edge);
  write_array2d(os, m.weights_on_edge);
  write_array2d(os, m.cells_on_vertex);
  write_array2d(os, m.edges_on_vertex);
  write_array2d(os, m.edge_sign_on_vertex);
  write_array2d(os, m.kite_areas_on_vertex);
  write_array2d(os, m.kite_areas_on_cell);
  write_vector(os, m.dc_edge);
  write_vector(os, m.dv_edge);
  write_vector(os, m.area_cell);
  write_vector(os, m.area_triangle);
  write_vector(os, m.f_cell);
  write_vector(os, m.f_edge);
  write_vector(os, m.f_vertex);
  write_vector(os, m.lat_cell);
  write_vector(os, m.lon_cell);
  write_vector(os, m.lat_edge);
  write_vector(os, m.lon_edge);
  write_vector(os, m.lat_vertex);
  write_vector(os, m.lon_vertex);
  write_vector(os, m.boundary_edges);
  write_vector(os, m.edge_normal);
  write_vector(os, m.edge_tangent);
  write_vector(os, m.global_cell_id);
  write_vector(os, m.global_edge_id);
  write_vector(os, m.global_vertex_id);
}

void read_payload(ReadCtx& ctx, VoronoiMesh& m) {
  m.num_cells = read_pod<Index>(ctx);
  m.num_edges = read_pod<Index>(ctx);
  m.num_vertices = read_pod<Index>(ctx);
  m.sphere_radius = read_pod<Real>(ctx);
  m.subdivision_level = read_pod<std::int32_t>(ctx);

  read_vector(ctx, m.x_cell);
  read_vector(ctx, m.x_edge);
  read_vector(ctx, m.x_vertex);
  read_vector(ctx, m.n_edges_on_cell);
  read_array2d(ctx, m.edges_on_cell);
  read_array2d(ctx, m.cells_on_cell);
  read_array2d(ctx, m.vertices_on_cell);
  read_array2d(ctx, m.edge_sign_on_cell);
  read_array2d(ctx, m.cells_on_edge);
  read_array2d(ctx, m.vertices_on_edge);
  read_vector(ctx, m.n_edges_on_edge);
  read_array2d(ctx, m.edges_on_edge);
  read_array2d(ctx, m.weights_on_edge);
  read_array2d(ctx, m.cells_on_vertex);
  read_array2d(ctx, m.edges_on_vertex);
  read_array2d(ctx, m.edge_sign_on_vertex);
  read_array2d(ctx, m.kite_areas_on_vertex);
  read_array2d(ctx, m.kite_areas_on_cell);
  read_vector(ctx, m.dc_edge);
  read_vector(ctx, m.dv_edge);
  read_vector(ctx, m.area_cell);
  read_vector(ctx, m.area_triangle);
  read_vector(ctx, m.f_cell);
  read_vector(ctx, m.f_edge);
  read_vector(ctx, m.f_vertex);
  read_vector(ctx, m.lat_cell);
  read_vector(ctx, m.lon_cell);
  read_vector(ctx, m.lat_edge);
  read_vector(ctx, m.lon_edge);
  read_vector(ctx, m.lat_vertex);
  read_vector(ctx, m.lon_vertex);
  read_vector(ctx, m.boundary_edges);
  read_vector(ctx, m.edge_normal);
  read_vector(ctx, m.edge_tangent);
  read_vector(ctx, m.global_cell_id);
  read_vector(ctx, m.global_edge_id);
  read_vector(ctx, m.global_vertex_id);
}

}  // namespace

void save_mesh(const VoronoiMesh& m, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  MPAS_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  const std::streampos checksum_pos = os.tellp();
  write_pod(os, std::uint64_t{0});  // patched with the payload hash below

  WriteCtx payload{os, {}};
  write_payload(payload, m);
  MPAS_CHECK_MSG(os.good(), "write failure on '" << path << "'");
  const std::uint64_t checksum = payload.hash.value();
  os.seekp(checksum_pos);
  write_pod(os, checksum);
  os.flush();
  MPAS_CHECK_MSG(os.good(), "write failure on '" << path << "'");
}

VoronoiMesh load_mesh(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  MPAS_CHECK_MSG(is.good(), "cannot open mesh file '" << path << "'");
  // The file's actual size bounds every element count the payload claims:
  // a truncated cache can never coerce the reader into a huge allocation.
  const std::streamoff file_size = is.tellg();
  constexpr std::streamoff kHeaderBytes =
      sizeof(kMagic) + sizeof(kVersion) + sizeof(std::uint64_t);
  MPAS_CHECK_MSG(file_size >= kHeaderBytes,
                 "mesh file '" << path << "' is too short to hold a header");
  is.seekg(0);
  char magic[sizeof(kMagic)];
  is.read(magic, sizeof(magic));
  MPAS_CHECK_MSG(is.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                 "'" << path << "' is not an MPAS mesh file");
  const auto version = read_pod<std::uint32_t>(is);
  MPAS_CHECK_MSG(version == kVersion,
                 "mesh file version " << version << ", expected " << kVersion);
  const auto expected = read_pod<std::uint64_t>(is);

  VoronoiMesh m;
  ReadCtx ctx{is, static_cast<std::uint64_t>(file_size - kHeaderBytes), {}};
  read_payload(ctx, m);
  // Every payload byte must be consumed (trailing garbage is corruption
  // too) and must hash to what the writer recorded.
  MPAS_CHECK_MSG(ctx.budget == 0,
                 "mesh file '" << path << "' has trailing bytes");
  MPAS_CHECK_MSG(ctx.hash.value() == expected,
                 "mesh file '" << path << "' failed its checksum (corrupt?)");

  m.validate(/*strict=*/false);
  return m;
}

}  // namespace mpas::mesh
