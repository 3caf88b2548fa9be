#include "octgb/core/batch_kernels.hpp"

#include "octgb/util/check.hpp"

namespace octgb::core {

void split_soa(std::span<const geom::Vec3> pts, std::span<double> x,
               std::span<double> y, std::span<double> z) {
  OCTGB_CHECK(x.size() == pts.size() && y.size() == pts.size() &&
              z.size() == pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    x[i] = pts[i].x;
    y[i] = pts[i].y;
    z[i] = pts[i].z;
  }
}

}  // namespace octgb::core
