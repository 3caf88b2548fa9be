#include "octgb/octree/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <type_traits>

#include "octgb/octree/morton.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/io.hpp"

namespace octgb::octree {

namespace {

constexpr std::uint64_t kMagic = 0x6f637467622d6f74ULL;  // "octgb-ot"
// v1: header + nodes + points + permutation.
// v2: v1 body followed by the "mkey" (sorted Morton keys, u64) and "mgrd"
//     (quantization grid, 5 doubles) tagged sections. Trees do not keep
//     that state, so writers emit both with count 0; the reader checks
//     non-empty ones from older writers, then drops them. Readers accept
//     v1 and v2; writers emit v2.
constexpr std::uint32_t kVersion = 2;

struct Header {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t reserved = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_points = 0;
};

template <class T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
void write_vec(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <class T>
void read_pod(std::istream& in, T& v) {
  OCTGB_CHECK_MSG(util::io::read_exact(in, &v, sizeof(T)),
                  "truncated octree stream");
}

template <class T>
void read_vec(std::istream& in, std::vector<T>& v, std::size_t n) {
  // util::io::read_vector grows chunk by chunk, so a corrupt header
  // claiming up to 2^32 elements cannot force a huge allocation before
  // the stream runs dry (the shared hardening contract of util/io.hpp).
  OCTGB_CHECK_MSG(util::io::read_vector(in, v, n),
                  "truncated octree stream: wanted " << n * sizeof(T)
                      << " bytes");
}

/// The node array in its in-memory layout (the stream format) with the
/// tail padding zeroed: equal trees give equal bytes.
void write_nodes(std::ostream& out, std::span<const Octree::Node> nodes) {
  using Node = Octree::Node;
  // The fields fill the first kFields bytes without a gap (the sum of
  // their sizes ends at `depth`); only the tail is padding.
  static_assert(std::is_standard_layout_v<Node>);
  constexpr std::size_t kFields = offsetof(Node, depth) + sizeof(Node::depth);
  static_assert(kFields == sizeof(geom::Vec3) + sizeof(double) +
                               3 * sizeof(std::uint32_t) +
                               2 * sizeof(std::uint8_t));
  std::vector<char> bytes(nodes.size() * sizeof(Node), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    std::memcpy(bytes.data() + i * sizeof(Node), &nodes[i], kFields);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool finite(const geom::Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

}  // namespace

void write_octree(const Octree& tree, std::ostream& out) {
  Header h;
  h.num_nodes = tree.nodes().size();
  h.num_points = tree.num_points();
  write_pod(out, h);
  write_nodes(out, tree.nodes());
  // The v1 body stores points as AoS Vec3s; gather them from the planes.
  std::vector<geom::Vec3> points(tree.num_points());
  for (std::uint32_t i = 0; i < points.size(); ++i) points[i] = tree.point(i);
  write_vec(out, points);
  out.write(reinterpret_cast<const char*>(tree.point_index().data()),
            static_cast<std::streamsize>(tree.point_index().size() *
                                         sizeof(std::uint32_t)));
  // The v2 Morton sections, always empty.
  write_u64_section(out, "mkey", {});
  write_f64_section(out, "mgrd", {});
  OCTGB_CHECK_MSG(static_cast<bool>(out), "octree write failed");
}

Octree read_octree(std::istream& in) {
  Header h;
  read_pod(in, h);
  OCTGB_CHECK_MSG(h.magic == kMagic, "not an octgb octree stream");
  OCTGB_CHECK_MSG(h.version == 1 || h.version == kVersion,
                  "unsupported octree version " << h.version);
  OCTGB_CHECK_MSG(h.num_nodes <= (std::uint64_t{1} << 32) &&
                      h.num_points <= (std::uint64_t{1} << 32),
                  "implausible octree shape");
  std::vector<Octree::Node> nodes;
  std::vector<geom::Vec3> points;
  std::vector<std::uint32_t> index;
  read_vec(in, nodes, h.num_nodes);
  // validate() checks every point against its node's ball, which an
  // infinite radius (and with it any centroid) passes: reject non-finite
  // node geometry by name first.
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    OCTGB_CHECK_MSG(finite(nodes[id].centroid),
                    "octree node " << id << " has a non-finite centroid");
    OCTGB_CHECK_MSG(std::isfinite(nodes[id].radius),
                    "octree node " << id << " has a non-finite radius");
  }
  read_vec(in, points, h.num_points);
  read_vec(in, index, h.num_points);
  // Morton state from older v2 writers: checked, then dropped (the tree
  // does not keep it).
  std::vector<std::uint64_t> keys;
  if (h.version >= 2) {
    keys = read_u64_section(in, "mkey");
    const std::vector<double> gv = read_f64_section(in, "mgrd");
    OCTGB_CHECK_MSG(gv.size() == 5 || gv.empty(),
                    "octree grid section has " << gv.size()
                                               << " values, expected 5");
    OCTGB_CHECK_MSG(keys.empty() == gv.empty(),
                    "octree stream pairs keys and grid inconsistently");
    if (!gv.empty()) {
      OCTGB_CHECK_MSG(finite({gv[0], gv[1], gv[2]}),
                      "octree Morton grid origin is non-finite");
      OCTGB_CHECK_MSG(std::isfinite(gv[3]),
                      "octree Morton grid cell is non-finite");
      // Range before the cast: a NaN or out-of-range double has no
      // uint8_t value.
      OCTGB_CHECK_MSG(gv[4] >= 1.0 && gv[4] <= kMortonMaxBits,
                      "octree stream has a malformed Morton grid");
      const auto bits = static_cast<std::uint8_t>(gv[4]);
      OCTGB_CHECK_MSG(gv[3] > 0.0 && gv[4] == static_cast<double>(bits),
                      "octree stream has a malformed Morton grid");
      OCTGB_CHECK_MSG(keys.size() == h.num_points,
                      "octree key section disagrees with the point count");
    }
  }
  Octree t = Octree::from_parts(std::move(nodes), points, std::move(index));
  OCTGB_CHECK_MSG(t.validate() && std::is_sorted(keys.begin(), keys.end()),
                  "corrupt octree stream");
  return t;
}

namespace {

struct SectionHeader {
  char tag[8] = {};
  std::uint32_t elem_size = 0;
  std::uint32_t reserved = 0;
  std::uint64_t count = 0;
};

void fill_tag(SectionHeader& h, std::string_view tag) {
  OCTGB_CHECK_MSG(!tag.empty() && tag.size() <= sizeof(h.tag),
                  "section tag must be 1..8 bytes");
  std::memcpy(h.tag, tag.data(), tag.size());
}

template <class T>
void write_section(std::ostream& out, std::string_view tag,
                   std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>);
  SectionHeader h;
  fill_tag(h, tag);
  h.elem_size = sizeof(T);
  h.count = data.size();
  write_pod(out, h);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(T)));
  OCTGB_CHECK_MSG(static_cast<bool>(out), "section write failed");
}

template <class T>
std::vector<T> read_section(std::istream& in, std::string_view tag) {
  SectionHeader h, want;
  fill_tag(want, tag);
  read_pod(in, h);
  OCTGB_CHECK_MSG(std::memcmp(h.tag, want.tag, sizeof(h.tag)) == 0,
                  "expected section '" << tag << "'");
  OCTGB_CHECK_MSG(h.elem_size == sizeof(T),
                  "section '" << tag << "' has element size " << h.elem_size
                              << ", expected " << sizeof(T));
  // Guard the byte-size computation: count must stay well below the point
  // where count * elem_size overflows the std::streamsize arithmetic the
  // reader does (a crafted count of ~2^61 would otherwise wrap).
  OCTGB_CHECK_MSG(h.count <= (std::uint64_t{1} << 32),
                  "section '" << tag << "' has implausible count "
                              << h.count);
  std::vector<T> v;
  read_vec(in, v, h.count);
  return v;
}

}  // namespace

void write_f64_section(std::ostream& out, std::string_view tag,
                       std::span<const double> data) {
  write_section(out, tag, data);
}

std::vector<double> read_f64_section(std::istream& in, std::string_view tag) {
  return read_section<double>(in, tag);
}

void write_vec3_section(std::ostream& out, std::string_view tag,
                        std::span<const geom::Vec3> data) {
  write_section(out, tag, data);
}

void write_u64_section(std::ostream& out, std::string_view tag,
                       std::span<const std::uint64_t> data) {
  write_section(out, tag, data);
}

std::vector<std::uint64_t> read_u64_section(std::istream& in,
                                            std::string_view tag) {
  return read_section<std::uint64_t>(in, tag);
}

std::vector<geom::Vec3> read_vec3_section(std::istream& in,
                                          std::string_view tag) {
  return read_section<geom::Vec3>(in, tag);
}

void write_octree_file(const Octree& tree, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  OCTGB_CHECK_MSG(static_cast<bool>(f), "cannot open " << path);
  write_octree(tree, f);
}

Octree read_octree_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  OCTGB_CHECK_MSG(static_cast<bool>(f), "cannot open " << path);
  return read_octree(f);
}

}  // namespace octgb::octree
