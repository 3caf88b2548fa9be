#include "octgb/core/epol.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "atomic_add.hpp"
#include "octgb/core/fastmath.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core {

namespace {

using geom::Vec3;
using octree::Octree;
using detail::atomic_add;

/// 1/f_GB with optional approximate math.
inline double inv_f_gb(double r2, double ri_rj, bool approx) {
  if (approx) {
    const double e = fast_exp(-r2 / (4.0 * ri_rj));
    return fast_rsqrt(r2 + ri_rj * e);
  }
  return 1.0 / f_gb(r2, ri_rj);
}

}  // namespace

int EpolContext::bin_of(double born) const {
  if (born <= rmin) return 0;
  const int k = static_cast<int>(std::log(born / rmin) / log1pe);
  return std::clamp(k, 0, nbins - 1);
}

std::size_t EpolContext::footprint_bytes() const {
  return bins.capacity() * sizeof(double) +
         bin_lo.capacity() * sizeof(std::int16_t) +
         bin_hi.capacity() * sizeof(std::int16_t) +
         rep.capacity() * sizeof(double);
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
  const std::size_t cap_bins = bins.capacity();
  const std::size_t cap_lo = bin_lo.capacity();
  const std::size_t cap_hi = bin_hi.capacity();
  const std::size_t cap_rep = rep.capacity();

  const auto nodes = ta.tree.nodes();
  if (nodes.empty()) {
    *this = EpolContext{};
    return false;
  }

  double born_min = born_tree[0], born_max = born_tree[0];
  for (double r : born_tree) {
    born_min = std::min(born_min, r);
    born_max = std::max(born_max, r);
  }
  rmin = born_min;
  log1pe = std::log1p(eps_epol);
  nbins = std::max(
      1, static_cast<int>(std::ceil(std::log(born_max / born_min) / log1pe)));
  // A radius exactly equal to rmax must land inside the last bin.
  while (born_min * std::exp(log1pe * nbins) <= born_max) ++nbins;
  rep.resize(nbins);
  // Geometric mid-bin representative (the paper's Fig. 3 uses the lower
  // edge Rmin(1+ε)^k; the mid-bin value halves the systematic bias of the
  // bin-pair f_GB at no extra cost).
  for (int k = 0; k < nbins; ++k)
    rep[k] = born_min * std::exp(log1pe * (k + 0.5));

  bins.assign(nodes.size() * static_cast<std::size_t>(nbins), 0.0);
  bin_lo.assign(nodes.size(), static_cast<std::int16_t>(nbins));
  bin_hi.assign(nodes.size(), -1);

  // Bottom-up: leaves bin their atoms; parents sum children (children have
  // larger ids than parents in the flat layout).
  for (std::size_t id = nodes.size(); id-- > 0;) {
    const auto& n = nodes[id];
    double* mine = bins.data() + id * static_cast<std::size_t>(nbins);
    if (n.is_leaf()) {
      for (std::uint32_t ai = n.begin; ai < n.end; ++ai) {
        const int k = bin_of(born_tree[ai]);
        mine[k] += ta.charge[ai];
        bin_lo[id] = std::min<std::int16_t>(bin_lo[id],
                                            static_cast<std::int16_t>(k));
        bin_hi[id] = std::max<std::int16_t>(bin_hi[id],
                                            static_cast<std::int16_t>(k));
      }
    } else {
      for (std::uint8_t c = 0; c < n.child_count; ++c) {
        const std::size_t cid = n.first_child + c;
        const double* theirs =
            bins.data() + cid * static_cast<std::size_t>(nbins);
        for (int k = 0; k < nbins; ++k) mine[k] += theirs[k];
        bin_lo[id] = std::min(bin_lo[id], bin_lo[cid]);
        bin_hi[id] = std::max(bin_hi[id], bin_hi[cid]);
      }
    }
  }
  return bins.capacity() > cap_bins || bin_lo.capacity() > cap_lo ||
         bin_hi.capacity() > cap_hi || rep.capacity() > cap_rep;
}

namespace {

struct EpolCounts {
  std::uint64_t exact = 0, binpairs = 0, visits = 0;
};

/// Leaf-V-versus-tree descent (Fig. 3). Accumulates the *unscaled* sum
/// Σ q_u q_v / f_GB; the caller applies −τ/2 (same tree) or −τ (cross).
/// The U side is the tree being descended; the V side usually aliases it
/// (approx_epol / approx_epol_atom_based pass the same tree, context, and
/// Born plane for both) but may be a different body entirely — the
/// cross-tree kernel of approx_epol_cross.
struct EpolPass {
  // U side: the descended tree.
  const AtomsTree& ta;
  const EpolContext& ctx;
  std::span<const double> born;  // tree order
  // V side: the tree owning v_node / v_atom.
  const AtomsTree& tv;
  const EpolContext& ctx_v;
  std::span<const double> born_v;  // tv tree order
  double eps;
  bool approx_math;
  KernelKind kernel;
  const simd::KernelSet* vec;  ///< non-null: explicit-SIMD kernels
  bool mixed;                  ///< float streams (vec must be non-null)

  // V side: either a leaf node (node-based division)…
  const Octree::Node* v_node = nullptr;
  // …or a single atom (atom-based division).
  std::uint32_t v_atom = 0;

  double v_centroid_radius(Vec3& c) const {
    if (v_node) {
      c = v_node->centroid;
      return v_node->radius;
    }
    c = tv.tree.points()[v_atom];
    return 0.0;
  }

  double descend(std::uint32_t u_id, EpolCounts& lc) const {
    ++lc.visits;
    const Octree::Node& u = ta.tree.node(u_id);
    Vec3 vc;
    const double vr = v_centroid_radius(vc);
    const double d2 = geom::dist2(u.centroid, vc);
    const double d = std::sqrt(d2);

    if (u.is_leaf()) {
      return exact_leaf(u, lc);
    }
    if (epol_far_enough(d, u.radius, vr, eps)) {
      return far_field(u_id, d2, lc);
    }
    double sum = 0.0;
    for (std::uint8_t c = 0; c < u.child_count; ++c)
      sum += descend(u.first_child + c, lc);
    return sum;
  }

  double exact_leaf(const Octree::Node& u, EpolCounts& lc) const {
    if (kernel == KernelKind::Batched) return exact_leaf_batched(u, lc);
    const auto pts = ta.tree.points();
    const auto pts_v = tv.tree.points();
    double sum = 0.0;
    if (v_node) {
      for (std::uint32_t vi = v_node->begin; vi < v_node->end; ++vi) {
        const Vec3 pv = pts_v[vi];
        const double qv = tv.charge[vi];
        const double rv = born_v[vi];
        for (std::uint32_t ui = u.begin; ui < u.end; ++ui) {
          const double r2 = geom::dist2(pts[ui], pv);
          sum += ta.charge[ui] * qv * inv_f_gb(r2, born[ui] * rv, approx_math);
        }
      }
      lc.exact += static_cast<std::uint64_t>(u.size()) * v_node->size();
    } else {
      const Vec3 pv = pts_v[v_atom];
      const double qv = tv.charge[v_atom];
      const double rv = born_v[v_atom];
      for (std::uint32_t ui = u.begin; ui < u.end; ++ui) {
        const double r2 = geom::dist2(pts[ui], pv);
        sum += ta.charge[ui] * qv * inv_f_gb(r2, born[ui] * rv, approx_math);
      }
      lc.exact += u.size();
    }
    return sum;
  }

  /// Batched leaf×leaf kernel: each V-side atom sweeps U's SoA batch. The
  /// self term (r ≈ 0) is included by the kernel's contract, matching the
  /// scalar loop (cross-tree calls never hit r ≈ 0 — the sets are
  /// disjoint bodies).
  double exact_leaf_batched(const Octree::Node& u, EpolCounts& lc) const {
    const double* __restrict vx = tv.soa_x().data();
    const double* __restrict vy = tv.soa_y().data();
    const double* __restrict vz = tv.soa_z().data();
    double sum = 0.0;
    if (vec != nullptr && mixed) {
      const AtomBatchF ub = ta.node_batch_f(u, born);
      if (v_node) {
        for (std::uint32_t vi = v_node->begin; vi < v_node->end; ++vi)
          sum += vec->epol_sum_mixed(vx[vi], vy[vi], vz[vi], tv.charge[vi],
                                     born_v[vi], ub);
        lc.exact += static_cast<std::uint64_t>(u.size()) * v_node->size();
      } else {
        sum = vec->epol_sum_mixed(vx[v_atom], vy[v_atom], vz[v_atom],
                                  tv.charge[v_atom], born_v[v_atom], ub);
        lc.exact += u.size();
      }
      return sum;
    }
    const AtomBatch ub = ta.node_batch(u, born);
    if (vec != nullptr) {
      const auto fn = approx_math ? vec->epol_sum_fast : vec->epol_sum;
      if (v_node) {
        for (std::uint32_t vi = v_node->begin; vi < v_node->end; ++vi)
          sum += fn(vx[vi], vy[vi], vz[vi], tv.charge[vi], born_v[vi], ub);
        lc.exact += static_cast<std::uint64_t>(u.size()) * v_node->size();
      } else {
        sum = fn(vx[v_atom], vy[v_atom], vz[v_atom], tv.charge[v_atom],
                 born_v[v_atom], ub);
        lc.exact += u.size();
      }
      return sum;
    }
    if (v_node) {
      for (std::uint32_t vi = v_node->begin; vi < v_node->end; ++vi) {
        sum += approx_math
                   ? batch_epol_sum_fast(vx[vi], vy[vi], vz[vi],
                                         tv.charge[vi], born_v[vi], ub)
                   : batch_epol_sum(vx[vi], vy[vi], vz[vi], tv.charge[vi],
                                    born_v[vi], ub);
      }
      lc.exact += static_cast<std::uint64_t>(u.size()) * v_node->size();
    } else {
      sum = approx_math
                ? batch_epol_sum_fast(vx[v_atom], vy[v_atom], vz[v_atom],
                                      tv.charge[v_atom], born_v[v_atom], ub)
                : batch_epol_sum(vx[v_atom], vy[v_atom], vz[v_atom],
                                 tv.charge[v_atom], born_v[v_atom], ub);
      lc.exact += u.size();
    }
    return sum;
  }

  double far_field(std::uint32_t u_id, double d2, EpolCounts& lc) const {
    const int nb = ctx.nbins;
    const double* ub = ctx.bins.data() + static_cast<std::size_t>(u_id) * nb;
    double sum = 0.0;
    if (v_node) {
      const std::size_t v_id = v_node_id;
      const double* vb =
          ctx_v.bins.data() + v_id * static_cast<std::size_t>(ctx_v.nbins);
      if (kernel == KernelKind::Batched && vec != nullptr) {
        // Vectorized M² bin-pair loop. Counts nnz_u·nnz_v bin pairs —
        // identical to the scalar skip-zeros loop below (zero-charge lanes
        // contribute exactly 0 because rep[·] > 0 keeps f_GB finite).
        const auto fn =
            approx_math ? vec->epol_far_bins_fast : vec->epol_far_bins;
        return fn(ub, ctx.bin_lo[u_id], ctx.bin_hi[u_id], ctx.rep.data(), vb,
                  ctx_v.bin_lo[v_id], ctx_v.bin_hi[v_id], ctx_v.rep.data(),
                  d2, lc.binpairs);
      }
      for (int i = ctx.bin_lo[u_id]; i <= ctx.bin_hi[u_id]; ++i) {
        if (ub[i] == 0.0) continue;
        for (int j = ctx_v.bin_lo[v_id]; j <= ctx_v.bin_hi[v_id]; ++j) {
          if (vb[j] == 0.0) continue;
          sum += ub[i] * vb[j] *
                 inv_f_gb(d2, ctx.rep[i] * ctx_v.rep[j], approx_math);
          ++lc.binpairs;
        }
      }
    } else {
      const double qv = tv.charge[v_atom];
      const double rv = born_v[v_atom];
      for (int i = ctx.bin_lo[u_id]; i <= ctx.bin_hi[u_id]; ++i) {
        if (ub[i] == 0.0) continue;
        sum += ub[i] * qv * inv_f_gb(d2, ctx.rep[i] * rv, approx_math);
        ++lc.binpairs;
      }
    }
    return sum;
  }

  std::size_t v_node_id = 0;
};

/// Deterministic parallel sum of the Epol phase. The items [0, n) are cut
/// into at most kSumBlocks fixed contiguous blocks; one task sums a
/// block's items in order (`block(lo, hi, counts)` returns that sum), and
/// the block sums are folded in block order. The association depends only
/// on n, so the energy is bitwise identical at every worker count, with
/// or without a scheduler; up to kSumBlocks items it is the plain serial
/// left-to-right sum. Counter tallies are exact integer sums.
constexpr std::size_t kSumBlocks = 256;

template <class Block>
double ordered_sum(std::size_t n, perf::WorkCounters& counters,
                   const Block& block) {
  std::array<double, kSumBlocks> partial{};
  const std::size_t blocks = std::min(n, kSumBlocks);
  ws::Scheduler::parallel_for(
      0, static_cast<std::int64_t>(blocks), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t b = lo; b < hi; ++b) {
          EpolCounts lc;
          partial[b] = block(b * n / blocks, (b + 1) * n / blocks, lc);
          atomic_add(counters.epol_exact, lc.exact);
          atomic_add(counters.epol_bins, lc.binpairs);
          atomic_add(counters.epol_visits, lc.visits);
        }
      });
  double total = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) total += partial[b];
  return total;
}

}  // namespace

double approx_epol(const AtomsTree& ta, const EpolContext& ctx,
                   std::span<const double> born_tree,
                   std::span<const std::uint32_t> v_leaf_ids, double eps_epol,
                   bool approx_math, const GBParams& gb,
                   perf::WorkCounters& counters, KernelKind kernel,
                   const simd::VectorParams& vector) {
  OCTGB_CHECK(born_tree.size() == ta.num_atoms());
  if (ta.tree.empty() || v_leaf_ids.empty()) return 0.0;
  const simd::VectorParams rvec = simd::resolve(vector);
  const simd::KernelSet* vec =
      kernel == KernelKind::Batched ? simd::kernels(rvec.isa) : nullptr;
  const bool mixed = vec != nullptr && !approx_math &&
                     rvec.precision == simd::Precision::Mixed;
  const double total = ordered_sum(
      v_leaf_ids.size(), counters,
      [&](std::size_t lo, std::size_t hi, EpolCounts& lc) {
        // Per-block Epol activity under the "epol.traversal" phase span.
        OCTGB_SPAN("epol.leaves");
        double mine = 0.0;
        for (std::size_t li = lo; li < hi; ++li) {
          EpolPass pass{ta,        ctx,      born_tree,
                        ta,        ctx,      born_tree,
                        eps_epol,  approx_math, kernel, vec, mixed,
                        &ta.tree.node(v_leaf_ids[li]), 0};
          pass.v_node_id = v_leaf_ids[li];
          mine += pass.descend(0, lc);
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
                              KernelKind kernel,
                              const simd::VectorParams& vector) {
  OCTGB_CHECK(born_tree.size() == ta.num_atoms());
  if (ta.tree.empty() || atom_begin >= atom_end) return 0.0;
  const simd::VectorParams rvec = simd::resolve(vector);
  const simd::KernelSet* vec =
      kernel == KernelKind::Batched ? simd::kernels(rvec.isa) : nullptr;
  const bool mixed = vec != nullptr && !approx_math &&
                     rvec.precision == simd::Precision::Mixed;

  // Atom-based division works on the leaves *clipped to the atom range*:
  // a segment boundary that falls inside a leaf splits it, and the split
  // piece has a different centroid/radius — hence different far-field
  // decisions. This is why the paper observes the error of atom-based
  // division changing with P while node-based division's stays constant.
  const auto& leaves = ta.tree.leaf_ids();
  const auto pts = ta.tree.points();
  const double total = ordered_sum(
      leaves.size(), counters,
      [&](std::size_t lo, std::size_t hi, EpolCounts& lc) {
        OCTGB_SPAN("epol.atoms");
        double mine = 0.0;
        for (std::size_t li = lo; li < hi; ++li) {
          const Octree::Node& leaf = ta.tree.node(leaves[li]);
          const std::uint32_t b = std::max(leaf.begin, atom_begin);
          const std::uint32_t e = std::min(leaf.end, atom_end);
          if (b >= e) continue;
          // Clipped pseudo-leaf over [b, e).
          Octree::Node v = leaf;
          v.begin = b;
          v.end = e;
          geom::Vec3 c;
          for (std::uint32_t i = b; i < e; ++i) c += pts[i];
          v.centroid = c / static_cast<double>(e - b);
          double r2max = 0.0;
          for (std::uint32_t i = b; i < e; ++i)
            r2max = std::max(r2max, geom::dist2(v.centroid, pts[i]));
          v.radius = std::sqrt(r2max);

          EpolPass pass{ta,       ctx,         born_tree, ta, ctx,
                        born_tree, eps_epol,   approx_math,
                        kernel,   vec,         mixed,     &v, 0};
          // The clipped leaf is not a persistent node; bin lookups on the
          // V side must use its own charge-by-bin table, so fall back to
          // the per-atom path when the clip is partial.
          if (b == leaf.begin && e == leaf.end) {
            pass.v_node_id = leaves[li];
            mine += pass.descend(0, lc);
          } else {
            for (std::uint32_t ai = b; ai < e; ++ai) {
              EpolPass atom_pass{ta,        ctx,      born_tree,
                                 ta,        ctx,      born_tree,
                                 eps_epol,  approx_math, kernel, vec,
                                 mixed,     nullptr,  ai};
              mine += atom_pass.descend(0, lc);
            }
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
                         perf::WorkCounters& counters, KernelKind kernel,
                         const simd::VectorParams& vector) {
  OCTGB_CHECK(born_a.size() == ta.num_atoms());
  OCTGB_CHECK(born_b.size() == tb.num_atoms());
  if (ta.tree.empty() || tb.tree.empty()) return 0.0;
  const simd::VectorParams rvec = simd::resolve(vector);
  const simd::KernelSet* vec =
      kernel == KernelKind::Batched ? simd::kernels(rvec.isa) : nullptr;
  const bool mixed = vec != nullptr && !approx_math &&
                     rvec.precision == simd::Precision::Mixed;
  const auto& v_leaves = tb.tree.leaf_ids();
  const double total = ordered_sum(
      v_leaves.size(), counters,
      [&](std::size_t lo, std::size_t hi, EpolCounts& lc) {
        OCTGB_SPAN("epol.cross");
        double mine = 0.0;
        for (std::size_t li = lo; li < hi; ++li) {
          EpolPass pass{ta,        ctx_a,    born_a,
                        tb,        ctx_b,    born_b,
                        eps_epol,  approx_math, kernel, vec, mixed,
                        &tb.tree.node(v_leaves[li]), 0};
          pass.v_node_id = v_leaves[li];
          mine += pass.descend(0, lc);
        }
        return mine;
      });
  // Ordered-pair convention of Eq. 2: every unordered A–B pair appears
  // twice in Σ_{ij}, so the cross block carries −τ, not −τ/2.
  return -gb.tau() * total;
}

}  // namespace octgb::core
