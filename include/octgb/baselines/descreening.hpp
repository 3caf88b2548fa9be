#pragma once
/// \file descreening.hpp
/// Pairwise-descreening Born-radius models — the algorithms behind the GB
/// implementations the paper compares against (Table II):
///   HCT  (Hawkins–Cramer–Truhlar 1996)  — Amber 12 & Gromacs GB-HCT
///   OBC  (Onufriev–Bashford–Case 2004)  — NAMD
///   Still (Still et al. 1990 / Qiu 1997 volume descreening) — Tinker, GBr6
///
/// All operate on a nonbonded pair list (nblist) with a distance cutoff —
/// the space/accuracy tradeoff the paper contrasts with octrees.

#include <span>
#include <vector>

#include "octgb/mol/molecule.hpp"
#include "octgb/octree/nblist.hpp"
#include "octgb/perf/counters.hpp"

namespace octgb::baselines {

/// Which pairwise Born-radius model to evaluate.
enum class BornModel { HCT, OBC, Still };

/// Compute Born radii with the chosen pairwise model over the nblist
/// (model constants follow the cited papers, calibrated where noted in
/// descreening.cpp). Counts one pairlist_pairs unit per evaluated pair.
std::vector<double> pairwise_born_radii(const mol::Molecule& mol,
                                        const octree::NbList& nblist,
                                        BornModel model,
                                        perf::WorkCounters* counters = nullptr);

}  // namespace octgb::baselines
