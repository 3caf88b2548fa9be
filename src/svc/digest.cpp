#include "octgb/svc/digest.hpp"

#include <cstring>

#include "octgb/util/rng.hpp"
#include "octgb/util/strings.hpp"

namespace octgb::svc {

std::string Digest::hex() const {
  return util::format("%016llx%016llx", static_cast<unsigned long long>(hi),
                      static_cast<unsigned long long>(lo));
}

void DigestBuilder::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  // FNV-1a-64 over every byte.
  for (std::size_t i = 0; i < n; ++i) {
    lo_ ^= p[i];
    lo_ *= 0x100000001b3ULL;
  }
  // Independent stream: fold 8-byte words (tail zero-padded) through a
  // splitmix64 chain so the two halves never cancel the same way.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    hi_ ^= w;
    hi_ = util::splitmix64(hi_);
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    // Fold the byte count so "abc" and "abc\0" cannot collide.
    hi_ ^= w ^ (static_cast<std::uint64_t>(n - i) << 56);
    hi_ = util::splitmix64(hi_);
  }
}

Digest digest_job_inputs(const mol::Molecule& mol,
                         const surface::SurfaceParams& surface,
                         const core::EngineConfig& config) {
  DigestBuilder b;
  // Molecule content first (the bulk of the input).
  b.pod(mol.size());
  for (const auto& a : mol.atoms()) {
    b.pod(a.pos.x);
    b.pod(a.pos.y);
    b.pod(a.pos.z);
    b.pod(a.radius);
    b.pod(a.charge);
  }
  // Surface sampling shapes T_Q.
  b.pod(surface.subdivision);
  b.pod(surface.quad_degree);
  b.pod(surface.burial_scale);
  // Tree topology knobs (the grid resolution and depth cap are
  // constants).
  b.pod(config.atoms_tree_params.max_leaf_size);
  b.pod(config.qpoints_tree_params.max_leaf_size);
  // Partition + arithmetic knobs (everything the plan key or the Born
  // cache stamp depends on). eps_epol and GBParams are deliberately
  // absent — they are warm re-dials on a shared artifact.
  b.pod(config.approx.eps_born);
  b.pod(config.approx.strict_born_criterion);
  b.pod(config.approx.approx_math);
  b.pod(config.approx.vector.isa);
  return b.finish();
}

}  // namespace octgb::svc
