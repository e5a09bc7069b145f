#include "sim/cost_model.h"

#include <cmath>

namespace tcq {

double SortCostUnits(double n) {
  if (n <= 0.0) return 0.0;
  return n * std::log2(n + 2.0);
}

}  // namespace tcq
