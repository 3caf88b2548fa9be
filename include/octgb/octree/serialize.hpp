#pragma once
/// \file serialize.hpp
/// Binary serialization for octrees.
///
/// The paper treats octree construction as a reusable preprocessing step
/// ("once an octree is built, it can be used for any approximation
/// parameter"); persisting trees lets a docking pipeline build once and
/// score many times across processes. Format: a small header (magic,
/// version, counts) followed by the flat node array, permuted points and
/// permutation — all little-endian PODs, validated on load.
///
/// Version 2 (DESIGN.md §2.9) appends two tagged sections after the v1
/// body: "mkey" (sorted Morton keys, u64) and "mgrd" (the quantization
/// grid as five doubles: origin xyz, cell size, bits). Trees no longer
/// keep that state, so the writer emits both sections with count 0. The
/// reader still accepts non-empty ones from older writers: it checks
/// their shape, finiteness, count and key order as before, then drops
/// them. Version-1 streams (which never carried these sections) still
/// load; writers always emit v2.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "octgb/geom/vec3.hpp"
#include "octgb/octree/octree.hpp"

namespace octgb::octree {

/// Write `tree` to a binary stream. Throws CheckError on I/O failure.
void write_octree(const Octree& tree, std::ostream& out);

/// Read a tree written by write_octree. Throws CheckError on a bad
/// magic/version/shape or on I/O failure; the loaded tree passes
/// Octree::validate().
Octree read_octree(std::istream& in);

/// File helpers.
void write_octree_file(const Octree& tree, const std::string& path);
Octree read_octree_file(const std::string& path);

// --- tagged payload sections ----------------------------------------------
//
// Payload-carrying tree round-trips (core/persist.hpp: AtomsTree /
// QPointsTree with their per-point payloads and SoA planes) append tagged
// sections after the bare octree: an 8-byte tag + element size + count
// header followed by raw little-endian elements. Readers pass the tag they
// expect, so a reordered or truncated stream fails loudly instead of
// deserializing one payload into another.

/// Write a tagged section of doubles. `tag` must be 1..8 bytes.
void write_f64_section(std::ostream& out, std::string_view tag,
                       std::span<const double> data);

/// Read a section previously written with write_f64_section; throws
/// CheckError when the tag or element size does not match.
std::vector<double> read_f64_section(std::istream& in, std::string_view tag);

/// Write a tagged section of Vec3s.
void write_vec3_section(std::ostream& out, std::string_view tag,
                        std::span<const geom::Vec3> data);

/// Read a section previously written with write_vec3_section.
std::vector<geom::Vec3> read_vec3_section(std::istream& in,
                                          std::string_view tag);

/// Write a tagged section of u64s (the v2 "mkey" section).
void write_u64_section(std::ostream& out, std::string_view tag,
                       std::span<const std::uint64_t> data);

/// Read a section previously written with write_u64_section.
std::vector<std::uint64_t> read_u64_section(std::istream& in,
                                            std::string_view tag);

}  // namespace octgb::octree
