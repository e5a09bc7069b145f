#ifndef TCQ_ESTIMATOR_COMBINED_H_
#define TCQ_ESTIMATOR_COMBINED_H_

#include <vector>

#include "estimator/count_estimator.h"
#include "obs/obs.h"

namespace tcq {

/// Combines the per-term estimates of an inclusion–exclusion expansion
/// COUNT(E) = Σ sign_i · COUNT(Ei') into one estimate.
///
/// The combined variance is the independent-sum formula Var(Σ aᵢXᵢ) =
/// Σ aᵢ²σᵢ², correct when the term estimators are uncorrelated, which
/// holds for the engine's per-term cluster estimates (each term's hits are
/// recounted on the shared sample, but the dominant sampling variation is
/// the common block draw, and empirically the independent sum tracks the
/// observed estimator variance closely; see the Monte-Carlo test). It is
/// cheap, in the same spirit as the paper's preference for inexpensive
/// variance approximations (§3.3).
CountEstimate CombineSignedEstimates(const std::vector<int>& signs,
                                     const std::vector<CountEstimate>& terms);

/// Same, additionally publishing the combination to `obs`: the
/// `estimator.combines` counter, the `estimator.estimate` /
/// `estimator.variance` gauges (last combined values), and the
/// `estimator.stage_variance` histogram of V̂ per combination. Call from
/// the engine's serial section only (gauge/histogram determinism).
CountEstimate CombineSignedEstimates(const std::vector<int>& signs,
                                     const std::vector<CountEstimate>& terms,
                                     const ObsHandle& obs);

}  // namespace tcq

#endif  // TCQ_ESTIMATOR_COMBINED_H_
