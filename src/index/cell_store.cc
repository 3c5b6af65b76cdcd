#include "index/cell_store.h"

#include <algorithm>
#include <string>

namespace fielddb {

Status WriteSamples(const std::vector<double>& samples, uint32_t n,
                    double* dst) {
  if (samples.size() != n) {
    return Status::InvalidArgument("expected " + std::to_string(n) +
                                   " values, got " +
                                   std::to_string(samples.size()));
  }
  if (!AllFinite(samples)) {
    return Status::InvalidArgument("samples must be finite");
  }
  std::copy(samples.begin(), samples.end(), dst);
  return Status::OK();
}

}  // namespace fielddb
