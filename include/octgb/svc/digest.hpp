#pragma once
/// \file digest.hpp
/// Content digests for the multi-tenant scoring service (octgb/svc/).
///
/// The artifact cache (cache.hpp) must key warm `ScoringSession`s by
/// *everything that can change the evaluation's preprocessing or its
/// partition structure* — two submissions may share an artifact only when
/// their trees, their Born-phase interaction plan, and their arithmetic
/// flavor are guaranteed identical. The digest therefore folds in:
///
///   - the molecule's content: every atom's position/radius/charge bits
///     (the name is deliberately excluded — two uploads of the same
///     coordinates hit the same artifact regardless of what the tenant
///     called the file);
///   - the surface sampling parameters (they shape T_Q);
///   - the octree build parameters for both trees (they shape topology);
///   - the partition/arithmetic knobs of ApproxParams: eps_born, the
///     strict-criterion switch, approx_math, and the requested
///     VectorParams (the width changes result bits, so it must
///     separate artifacts — see DESIGN.md §2.8).
///
/// Deliberately *excluded* are the evaluation-time-only knobs that a warm
/// session re-dials per job without touching trees or plan: eps_epol and
/// the GB dielectric constants. An ε_epol re-dial on a popular molecule is
/// exactly the traffic the cache exists to accelerate.
///
/// The digest is 128 bits built from two independently-seeded streaming
/// mixes (FNV-1a-64 and a splitmix64 chain), so accidental collisions are
/// out of reach for any realistic cache population; svc_test pins the
/// collision-freedom across each folded dimension.

#include <cstdint>
#include <string>

#include "octgb/core/engine.hpp"
#include "octgb/mol/molecule.hpp"
#include "octgb/surface/surface.hpp"

namespace octgb::svc {

/// 128-bit content digest — the artifact-cache key.
struct Digest {
  std::uint64_t hi = 0;  ///< splitmix64-chained half
  std::uint64_t lo = 0;  ///< FNV-1a-64 half

  /// Value equality (both halves).
  friend bool operator==(const Digest&, const Digest&) = default;
  /// Lexicographic order so Digest can key ordered containers.
  friend bool operator<(const Digest& a, const Digest& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  /// 32-hex-character rendering for logs and metrics labels.
  std::string hex() const;
};

/// Incremental digest builder: feed byte ranges, then finish().
class DigestBuilder {
 public:
  /// Mix `n` raw bytes into both streams.
  void bytes(const void* data, std::size_t n);

  /// Mix one trivially-copyable value by its object representation.
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "digest input must be trivially copyable");
    bytes(&v, sizeof(T));
  }

  /// The digest of everything fed so far.
  Digest finish() const { return Digest{hi_, lo_}; }

 private:
  std::uint64_t hi_ = 0x6a09e667f3bcc909ULL;  // splitmix chain state
  std::uint64_t lo_ = 0xcbf29ce484222325ULL;  // FNV-1a-64 state
};

/// The artifact-cache key for one job's inputs: molecule content, surface
/// sampling, tree-build parameters, and the partition/arithmetic knobs of
/// `config` (see the file comment for the exact in/out list).
Digest digest_job_inputs(const mol::Molecule& mol,
                         const surface::SurfaceParams& surface,
                         const core::EngineConfig& config);

}  // namespace octgb::svc
