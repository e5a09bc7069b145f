#include "estimator/combined.h"

#include "util/check.h"

namespace tcq {

CountEstimate CombineSignedEstimates(const std::vector<int>& signs,
                                     const std::vector<CountEstimate>& terms) {
  TCQ_CHECK(signs.size() == terms.size(),
            "every inclusion-exclusion term needs a sign");
  CountEstimate out;
  for (size_t i = 0; i < terms.size(); ++i) {
    double a = static_cast<double>(signs[i]);
    out.value += a * terms[i].value;
    out.variance += a * a * terms[i].variance;  // Σ aᵢ²σᵢ²
    out.hits += terms[i].hits;
    out.points += terms[i].points;
    out.total_points += terms[i].total_points;
  }
  TCQ_CHECK_INVARIANT(out.variance >= 0.0,
                      "combined variance estimate went negative");
  return out;
}

CountEstimate CombineSignedEstimates(const std::vector<int>& signs,
                                     const std::vector<CountEstimate>& terms,
                                     const ObsHandle& obs) {
  CountEstimate out = CombineSignedEstimates(signs, terms);
  if (obs.metering()) {
    obs.metrics->counter("estimator.combines")->Increment();
    obs.metrics->gauge("estimator.estimate")->Set(out.value);
    obs.metrics->gauge("estimator.variance")->Set(out.variance);
    obs.metrics->histogram("estimator.stage_variance")->Record(out.variance);
  }
  if (obs.tracing()) {
    obs.tracer->Instant("combine_estimates", "estimator", "estimate",
                        out.value);
  }
  return out;
}

}  // namespace tcq
