#pragma once
/// \file persist.hpp
/// Binary round-trips for the stage-1 (Preprocessed) artifacts. Layered on
/// octree/serialize.hpp: each tree is the generic octree stream followed
/// by tagged payload sections (octree::write_f64_section and friends), so
/// the octree layer stays ignorant of core's payload types while core gets
/// self-describing, size-checked payload framing.
///
/// T_A is its octree, "chg" and "vdw"; T_Q is its octree and "wnrm" (w·n
/// as AoS Vec3s, split back into planes on load). Per-node aggregates are
/// *not* serialized — QPointsTree::rebuild_derived() recomputes them, so
/// they never go stale. Readers throw util::CheckError naming the section
/// and element of a NaN or infinite payload value. Older streams end with
/// a "wgt" (quadrature weight) section; it is left unread in the stream.
///
/// Intended use: preprocess once (surface sampling + tree builds), persist,
/// then stream poses/parameters against the reloaded artifact in later
/// processes — the "once an octree is built, it can be used for any
/// approximation parameter" property made durable.

#include <iosfwd>
#include <string>

#include "octgb/core/trees.hpp"

namespace octgb::core {

void write_atoms_tree(const AtomsTree& t, std::ostream& out);
AtomsTree read_atoms_tree(std::istream& in);

void write_qpoints_tree(const QPointsTree& t, std::ostream& out);
QPointsTree read_qpoints_tree(std::istream& in);

void write_preprocessed(const Preprocessed& pre, std::ostream& out);
Preprocessed read_preprocessed(std::istream& in);

void write_preprocessed_file(const Preprocessed& pre, const std::string& path);
Preprocessed read_preprocessed_file(const std::string& path);

}  // namespace octgb::core
