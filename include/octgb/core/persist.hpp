#pragma once
/// \file persist.hpp
/// Binary round-trips for the stage-1 (Preprocessed) artifacts. Layered on
/// octree/serialize.hpp: each tree is the generic octree stream followed
/// by tagged payload sections (octree::write_f64_section and friends), so
/// the octree layer stays ignorant of core's payload types while core gets
/// self-describing, size-checked payload framing.
///
/// The derived SoA planes and per-node aggregates are *not* serialized —
/// the octree rebuilds its coordinate planes on load and
/// QPointsTree::rebuild_derived() its weighted-normal planes, which keeps
/// the format minimal and guarantees the planes can never go stale
/// relative to the authoritative payloads.
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
