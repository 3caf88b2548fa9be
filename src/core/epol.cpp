#include "octgb/core/epol.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "epol_walk.hpp"
#include "near_field.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

namespace {

using geom::Vec3;
using octree::Octree;

using M = BinMoments;

/// Adds the moments of leaf `n` of `t`, binned by `ctx`, to the block
/// `m` of bins [lo, hi], its planes hi − lo + 1 cells apart:
/// per atom, with x the tree's current point, c the leaf centroid and
/// r = x − c, q to Q, q·R to S, q·R² to T, q·r to P, q·R·r to U and
/// q·r·rᵀ to Θ. The one loop EpolContext::rebuild and the moving side of
/// approx_epol_cross share, so a leaf's moments recomputed after a refit
/// are bitwise what a rebuild on the refit tree stores.
void add_leaf_moments(const EpolContext& ctx, const AtomsTree& t,
                      std::span<const double> born, const Octree::Node& n,
                      int lo, int hi, double* m) {
  const std::size_t stride = static_cast<std::size_t>(hi - lo + 1);
  for (std::uint32_t ai = n.begin; ai < n.end; ++ai) {
    // bin_of is monotone, so the clamp only guards the range invariant
    // the cell index relies on.
    double* c = m + (std::clamp(ctx.bin_of(born[ai]), lo, hi) - lo);
    const auto cell = [c, stride](int p) -> double& { return c[p * stride]; };
    const double q = t.charge[ai];
    const double qr = q * born[ai];
    const Vec3 r = t.tree.point(ai) - n.centroid;
    const Vec3 p = r * q;
    cell(M::Q) += q;
    cell(M::S) += qr;
    cell(M::T) += qr * born[ai];
    cell(M::Px) += p.x;
    cell(M::Py) += p.y;
    cell(M::Pz) += p.z;
    cell(M::Ux) += qr * r.x;
    cell(M::Uy) += qr * r.y;
    cell(M::Uz) += qr * r.z;
    cell(M::Txx) += p.x * r.x;
    cell(M::Tyy) += p.y * r.y;
    cell(M::Tzz) += p.z * r.z;
    cell(M::Txy) += p.x * r.y;
    cell(M::Txz) += p.x * r.z;
    cell(M::Tyz) += p.y * r.z;
  }
}

/// The moments of one atom as a one-bin table about its own position:
/// Q = q, S = q·R, T = q·R², P = U = Θ = 0.
std::array<double, M::kPlanes> atom_moments(double q, double born) {
  std::array<double, M::kPlanes> m{};
  m[M::Q] = q;
  m[M::S] = q * born;
  m[M::T] = m[M::S] * born;
  return m;
}

}  // namespace

int EpolContext::bin_of(double born) const {
  if (born <= rmin) return 0;
  const int k = static_cast<int>(std::log(born / rmin) / log1pe);
  return std::clamp(k, 0, nbins - 1);
}

BinMoments EpolContext::moments(std::size_t id) const {
  const int n = bin_hi[id] - bin_lo[id] + 1;
  return {bins.data() + M::kPlanes * bin_off[id], static_cast<std::size_t>(n),
          rep.data() + bin_lo[id], n};
}

std::size_t EpolContext::footprint_bytes() const {
  return (bins.capacity() + rep.capacity()) * sizeof(double) +
         (bin_lo.capacity() + bin_hi.capacity()) * sizeof(std::int16_t) +
         bin_off.capacity() * sizeof(std::size_t);
}

EpolContext EpolContext::build(const AtomsTree& ta,
                               std::span<const double> born_tree,
                               double eps_epol) {
  EpolContext ctx;
  ctx.rebuild(ta, born_tree, eps_epol);
  return ctx;
}

bool EpolContext::rebuild(const AtomsTree& ta,
                          std::span<const double> born_tree,
                          double eps_epol) {
  OCTGB_CHECK_MSG(eps_epol > 0.0, "eps_epol must be positive");
  OCTGB_CHECK(born_tree.size() == ta.num_atoms());
  const std::size_t cap = footprint_bytes();

  const auto nodes = ta.tree.nodes();
  if (nodes.empty()) {
    *this = EpolContext{};
    return false;
  }

  // A NaN radius would slip through the min/max scan below (and poison it
  // when it comes first); zero, negative or infinite ones would surface as
  // a misleading bin-count failure. Name the offender instead.
  for (std::size_t i = 0; i < born_tree.size(); ++i)
    OCTGB_CHECK_MSG(born_tree[i] > 0.0 && std::isfinite(born_tree[i]),
                    "Born radius at tree index "
                        << i << " is " << born_tree[i]
                        << "; radii must be finite and positive");
  double born_min = born_tree[0], born_max = born_tree[0];
  for (double r : born_tree) {
    born_min = std::min(born_min, r);
    born_max = std::max(born_max, r);
  }
  // bin_lo/bin_hi hold bin indices as int16_t and the far-field loops
  // index the bin tables with them, so the bin count must fit. It is
  // checked before any table is sized; the cap also bounds the loop below,
  // which otherwise spins ~1e-16/ε times when all radii are equal.
  const double l1pe = std::log1p(eps_epol);
  const double needed = std::ceil(std::log(born_max / born_min) / l1pe);
  int nb = needed < INT16_MAX ? std::max(1, static_cast<int>(needed))
                              : INT16_MAX + 1;
  // A radius exactly equal to rmax must land inside the last bin.
  while (nb <= INT16_MAX && born_min * std::exp(l1pe * nb) <= born_max) ++nb;
  OCTGB_CHECK_MSG(nb <= INT16_MAX,
                  "eps_epol too small for the Born-radius range: the bin "
                  "count exceeds the int16 bin index");
  rmin = born_min;
  log1pe = l1pe;
  nbins = nb;
  rep.resize(nbins);
  // Geometric mid-bin representative (the paper's Fig. 3 uses the lower
  // edge Rmin(1+ε)^k; the mid-bin value halves the systematic bias of the
  // bin-pair f_GB at no extra cost).
  for (int k = 0; k < nbins; ++k)
    rep[k] = born_min * std::exp(log1pe * (k + 0.5));

  // Bin ranges bottom-up (children have larger ids than parents in the
  // flat layout): a leaf spans the bins of its smallest and largest
  // radius, a parent the union of its children.
  bin_lo.resize(nodes.size());
  bin_hi.resize(nodes.size());
  for (std::size_t id = nodes.size(); id-- > 0;) {
    const auto& n = nodes[id];
    if (n.is_leaf()) {
      const auto [lo, hi] = std::minmax_element(born_tree.begin() + n.begin,
                                                born_tree.begin() + n.end);
      bin_lo[id] = static_cast<std::int16_t>(bin_of(*lo));
      bin_hi[id] = static_cast<std::int16_t>(bin_of(*hi));
      continue;
    }
    bin_lo[id] = bin_lo[n.first_child];
    bin_hi[id] = bin_hi[n.first_child];
    for (std::uint8_t c = 1; c < n.child_count; ++c) {
      bin_lo[id] = std::min(bin_lo[id], bin_lo[n.first_child + c]);
      bin_hi[id] = std::max(bin_hi[id], bin_hi[n.first_child + c]);
    }
  }
  bin_off.resize(nodes.size());
  std::size_t cells = 0;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    bin_off[id] = cells;
    cells += static_cast<std::size_t>(bin_hi[id] - bin_lo[id] + 1);
  }
  bins.assign(M::kPlanes * cells, 0.0);

  // Moments bottom-up: leaves bin their atoms; parents sum children,
  // moving each child's moments from its centroid to the parent's by the
  // parallel-axis rules, with s = c_child − c_parent:
  //   P += P_c + Q_c·s,  U += U_c + S_c·s,
  //   Θ += Θ_c + P_c·sᵀ + s·P_cᵀ + Q_c·s·sᵀ.
  for (std::size_t id = nodes.size(); id-- > 0;) {
    const auto& n = nodes[id];
    double* m = bins.data() + M::kPlanes * bin_off[id];
    if (n.is_leaf()) {
      add_leaf_moments(*this, ta, born_tree, n, bin_lo[id], bin_hi[id], m);
      continue;
    }
    const std::size_t stride =
        static_cast<std::size_t>(bin_hi[id] - bin_lo[id] + 1);
    for (std::uint8_t c = 0; c < n.child_count; ++c) {
      const std::size_t cid = n.first_child + c;
      const BinMoments cm = moments(cid);
      const Vec3 s = nodes[cid].centroid - n.centroid;
      double* pm = m + (bin_lo[cid] - bin_lo[id]);
      const auto cell = [pm, stride](int p, int k) -> double& {
        return pm[p * stride + k];
      };
      for (int k = 0; k < cm.n; ++k) {
        const double q = cm.at(M::Q, k), sr = cm.at(M::S, k);
        const Vec3 p{cm.at(M::Px, k), cm.at(M::Py, k), cm.at(M::Pz, k)};
        cell(M::Q, k) += q;
        cell(M::S, k) += sr;
        cell(M::T, k) += cm.at(M::T, k);
        cell(M::Px, k) += p.x + q * s.x;
        cell(M::Py, k) += p.y + q * s.y;
        cell(M::Pz, k) += p.z + q * s.z;
        cell(M::Ux, k) += cm.at(M::Ux, k) + sr * s.x;
        cell(M::Uy, k) += cm.at(M::Uy, k) + sr * s.y;
        cell(M::Uz, k) += cm.at(M::Uz, k) + sr * s.z;
        const Vec3 qs = s * q;
        cell(M::Txx, k) += cm.at(M::Txx, k) + 2.0 * p.x * s.x + qs.x * s.x;
        cell(M::Tyy, k) += cm.at(M::Tyy, k) + 2.0 * p.y * s.y + qs.y * s.y;
        cell(M::Tzz, k) += cm.at(M::Tzz, k) + 2.0 * p.z * s.z + qs.z * s.z;
        cell(M::Txy, k) +=
            cm.at(M::Txy, k) + p.x * s.y + s.x * p.y + qs.x * s.y;
        cell(M::Txz, k) +=
            cm.at(M::Txz, k) + p.x * s.z + s.x * p.z + qs.x * s.z;
        cell(M::Tyz, k) +=
            cm.at(M::Tyz, k) + p.y * s.z + s.y * p.z + qs.y * s.z;
      }
    }
  }
  return footprint_bytes() > cap;
}

namespace {

using detail::EpolCounts;

/// Energy sink of the Epol walk: the *unscaled* sum Σ q_u q_v / f_GB of
/// the V side against the walked tree `ta`; the caller applies −τ/2 (same
/// tree) or −τ (cross). The V side is the atoms [vb, ve) of `tv` with
/// moments `vm`: a leaf, or one atom as a one-bin table. `tv` usually
/// aliases `ta` (approx_epol / approx_epol_atom_based pass the same tree
/// and Born plane for both) but may be a different body entirely — the
/// cross-tree kernel of approx_epol_cross. With v_ancestors set (the
/// approx_epol path) the near field is mirrored: see near(). One sink
/// serves one V side: walk() runs the descent, whose near leaves join
/// runs of abutting U ranges (DESIGN.md §2.3), and adds the run sums
/// after the far terms.
struct EnergySink {
  const AtomsTree& ta;
  const EpolContext& ctx;
  std::span<const double> born;  // ta tree order
  const AtomsTree& tv;
  std::span<const double> born_v;  // tv tree order
  detail::NearField nf;
  double k;  ///< opening factor, epol_threshold(ε)
  std::uint32_t vb, ve;
  BinMoments vm;
  /// Mirrored path only: V's leaf id and its strict ancestors, root
  /// first. Empty v_ancestors means the plain descent.
  std::uint32_t v_id = 0;
  std::span<const std::uint32_t> v_ancestors{};
  detail::NearRun run{};
  double near_sum = 0.0;

  /// The V side's whole walk from its centroid `vc` and radius `vr`.
  double walk(const Vec3& vc, double vr, EpolCounts& lc) {
    const double far = detail::epol_walk(ta.tree, vc, vr, k, *this, lc);
    run.flush(*this);
    return far + near_sum;
  }

  /// Leaf U (child of `u_parent`) joins the pending run with weight 1,
  /// or 2 where V evaluates a mutual pair for both sides; the kernel runs
  /// at the run's flush, so near() returns 0.
  double near(std::uint32_t u_id, std::uint32_t u_parent,
              const Octree::Node& u, EpolCounts& lc) {
    double weight = 1.0;
    if (!v_ancestors.empty() && u_id != v_id && u_reaches_v(u)) {
      // Mutual pair: U's own descent reaches V and computes the same
      // sum, so one side evaluates it for both.
      if (!detail::owns_mutual_pair(v_id, v_ancestors.back(), u_id,
                                    u_parent))
        return 0.0;
      lc.exact += static_cast<std::uint64_t>(u.size()) * (ve - vb);  // U's
      weight = 2.0;
    }
    lc.exact += static_cast<std::uint64_t>(u.size()) * (ve - vb);
    run.add(u.begin, u.end, weight, *this);
    return 0.0;
  }

  /// Second-order bin-pair far field of node U against the V side, with
  /// D = c_U − c_V and d2 = |D|² as the walk computed it.
  double far(std::uint32_t u_id, const Vec3& delta, double d2,
             EpolCounts& lc) const {
    const auto fn =
        nf.fast ? nf.set->epol_far_bins_fast : nf.set->epol_far_bins;
    return fn(ctx.moments(u_id), vm, delta.x, delta.y, delta.z, d2,
              lc.binpairs);
  }

  /// Whether leaf U's descent would reach leaf V: no strict ancestor B of
  /// V is far from U, tested with the exact operands U's walk uses.
  bool u_reaches_v(const Octree::Node& u) const {
    for (const std::uint32_t b_id : v_ancestors) {
      const Octree::Node& b = ta.tree.node(b_id);
      if (epol_far_enough(std::sqrt(geom::dist2(b.centroid, u.centroid)),
                          b.radius, u.radius, k))
        return false;
    }
    return true;
  }

  /// The sweep of one run: the exact sum of the U atoms [ub, ue) against
  /// the V side, times the run's weight. The self term (r ≈ 0) is
  /// included by the kernels' contract (cross-tree calls never hit
  /// r ≈ 0 — the sets are disjoint bodies).
  void operator()(std::uint32_t ub, std::uint32_t ue, double weight) {
    near_sum += weight * detail::epol_near(nf, ta, ub, ue, born, tv, vb, ve,
                                           born_v);
  }
};

/// Strict ancestors of leaf `v_id`, root first, found by walking down by
/// point range (children tile their parent's range in order). Node depth
/// is a uint8_t, so a 256-entry stack always holds the path.
std::span<const std::uint32_t> ancestors_of(
    const Octree& tree, std::uint32_t v_id,
    std::array<std::uint32_t, 256>& path) {
  const std::uint32_t v_begin = tree.node(v_id).begin;
  std::size_t depth = 0;
  for (std::uint32_t id = 0; id != v_id;) {
    const Octree::Node& n = tree.node(id);
    OCTGB_CHECK(!n.is_leaf() && depth < path.size());
    path[depth++] = id;
    id = n.first_child;
    while (tree.node(id).end <= v_begin) ++id;
  }
  return {path.data(), depth};
}

}  // namespace

double approx_epol(const AtomsTree& ta, const EpolContext& ctx,
                   std::span<const double> born_tree,
                   std::span<const std::uint32_t> v_leaf_ids, double eps_epol,
                   bool approx_math, const GBParams& gb,
                   perf::WorkCounters& counters, KernelKind,
                   const simd::VectorParams& vector) {
  OCTGB_CHECK(born_tree.size() == ta.num_atoms());
  if (ta.tree.empty() || v_leaf_ids.empty()) return 0.0;
  const detail::NearField nf = detail::select_near_field(vector, approx_math);
  const double k = epol_threshold(eps_epol);
  const double total = detail::ordered_sum(
      v_leaf_ids.size(), counters,
      [&](std::size_t lo, std::size_t hi, EpolCounts& lc) {
        // Per-block Epol activity under the "epol.traversal" phase span.
        OCTGB_SPAN("epol.leaves");
        std::array<std::uint32_t, 256> path{};
        double mine = 0.0;
        for (std::size_t li = lo; li < hi; ++li) {
          const std::uint32_t v_id = v_leaf_ids[li];
          const Octree::Node& v = ta.tree.node(v_id);
          EnergySink sink{ta, ctx, born_tree, ta, born_tree, nf, k,
                          v.begin, v.end, ctx.moments(v_id), v_id,
                          ancestors_of(ta.tree, v_id, path)};
          mine += sink.walk(v.centroid, v.radius, lc);
        }
        return mine;
      });
  return -0.5 * gb.tau() * total;
}

double approx_epol_atom_based(const AtomsTree& ta, const EpolContext& ctx,
                              std::span<const double> born_tree,
                              std::uint32_t atom_begin, std::uint32_t atom_end,
                              double eps_epol, bool approx_math,
                              const GBParams& gb,
                              perf::WorkCounters& counters,
                              const simd::VectorParams& vector) {
  OCTGB_CHECK(born_tree.size() == ta.num_atoms());
  if (ta.tree.empty() || atom_begin >= atom_end) return 0.0;
  const detail::NearField nf = detail::select_near_field(vector, approx_math);
  const double k = epol_threshold(eps_epol);

  // A leaf inside [atom_begin, atom_end) walks the tree as one V side. A
  // segment boundary that falls inside a leaf splits it, and each atom of
  // the split piece walks the tree on its own, as a V side of radius 0 at
  // its own position — different far-field decisions from the leaf's.
  // This is why the paper observes the error of atom-based division
  // changing with P while node-based division's stays constant.
  const auto& leaves = ta.tree.leaf_ids();
  const double total = detail::ordered_sum(
      leaves.size(), counters,
      [&](std::size_t lo, std::size_t hi, EpolCounts& lc) {
        OCTGB_SPAN("epol.atoms");
        double mine = 0.0;
        for (std::size_t li = lo; li < hi; ++li) {
          const Octree::Node& v = ta.tree.node(leaves[li]);
          const std::uint32_t b = std::max(v.begin, atom_begin);
          const std::uint32_t e = std::min(v.end, atom_end);
          if (b >= e) continue;
          if (b == v.begin && e == v.end) {
            EnergySink sink{ta, ctx, born_tree, ta, born_tree, nf, k,
                            b, e, ctx.moments(leaves[li])};
            mine += sink.walk(v.centroid, v.radius, lc);
            continue;
          }
          for (std::uint32_t ai = b; ai < e; ++ai) {
            // A single V atom is one bin of its own, with rep = R.
            const std::array<double, M::kPlanes> vm =
                atom_moments(ta.charge[ai], born_tree[ai]);
            const BinMoments one{vm.data(), 1, &born_tree[ai], 1};
            EnergySink sink{ta, ctx, born_tree, ta, born_tree, nf, k,
                            ai, ai + 1, one};
            mine += sink.walk(ta.tree.point(ai), 0.0, lc);
          }
        }
        return mine;
      });
  return -0.5 * gb.tau() * total;
}

double approx_epol_cross(const AtomsTree& ta, const EpolContext& ctx_a,
                         std::span<const double> born_a, const AtomsTree& tb,
                         const EpolContext& ctx_b,
                         std::span<const double> born_b, double eps_epol,
                         bool approx_math, const GBParams& gb,
                         perf::WorkCounters& counters, KernelKind,
                         const simd::VectorParams& vector) {
  OCTGB_CHECK(born_a.size() == ta.num_atoms());
  OCTGB_CHECK(born_b.size() == tb.num_atoms());
  if (ta.tree.empty() || tb.tree.empty()) return 0.0;
  OCTGB_CHECK_MSG(ctx_b.bin_lo.size() == tb.tree.nodes().size(),
                  "ctx_b was built on a different tree shape than tb");
  const detail::NearField nf = detail::select_near_field(vector, approx_math);
  const double k = epol_threshold(eps_epol);
  const auto& v_leaves = tb.tree.leaf_ids();
  const double total = detail::ordered_sum(
      v_leaves.size(), counters,
      [&](std::size_t lo, std::size_t hi, EpolCounts& lc) {
        OCTGB_SPAN("epol.cross");
        std::vector<double> block;  // the V leaf's moments
        double mine = 0.0;
        for (std::size_t li = lo; li < hi; ++li) {
          const std::uint32_t v_id = v_leaves[li];
          const Octree::Node& v = tb.tree.node(v_id);
          const int blo = ctx_b.bin_lo[v_id], bhi = ctx_b.bin_hi[v_id];
          const int n = bhi - blo + 1;
          block.assign(M::kPlanes * static_cast<std::size_t>(n), 0.0);
          add_leaf_moments(ctx_b, tb, born_b, v, blo, bhi, block.data());
          const BinMoments vm{block.data(), static_cast<std::size_t>(n),
                              &ctx_b.rep[blo], n};
          EnergySink sink{ta, ctx_a, born_a, tb, born_b, nf, k,
                          v.begin, v.end, vm};
          mine += sink.walk(v.centroid, v.radius, lc);
        }
        return mine;
      });
  // Ordered-pair convention of Eq. 2: every unordered A–B pair appears
  // twice in Σ_{ij}, so the cross block carries −τ, not −τ/2.
  return -gb.tau() * total;
}

}  // namespace octgb::core
