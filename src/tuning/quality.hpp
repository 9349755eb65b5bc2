// Output-quality metrics for precision tuning.
//
// The paper's tuner (fpPrecisionTuning / DistributedSearch) takes "the
// precision of the result, expressed as a value of signal-to-quantization-
// noise ratio (SQNR) that program outputs must satisfy" and evaluates
// requirements written as 10^-3, 10^-2, 10^-1. SQNR is a *power* ratio, so
// we read such a value epsilon as the admissible noise-to-signal power
// ratio:
//
//     passes(epsilon)  <=>  SQNR >= 1 / epsilon
//                      <=>  rms(out - golden) / rms(golden) <= sqrt(epsilon)
//
// i.e. 10^-3 admits ~3.2% output amplitude error and 10^-1 admits ~32%.
// This reading reproduces the paper's tuning outcomes (KNN all-binary8 at
// 10^-1, substantial 16-bit use even at 10^-3).
#pragma once

#include <span>

namespace tp::tuning {

/// Relative RMS error of `out` against `golden` (see util::relative_rms_error).
[[nodiscard]] double output_error(std::span<const double> golden,
                                  std::span<const double> out);

/// SQNR as a power ratio; +inf for an exact match.
[[nodiscard]] double output_sqnr(std::span<const double> golden,
                                 std::span<const double> out);

/// The pass/fail predicate the search uses, on an output's relative error
/// (output_error): its square, the noise-to-signal power ratio, must not
/// exceed epsilon. The trial cache (tuning/eval_engine.hpp) keeps only this
/// error per trial and judges every hit through this overload.
[[nodiscard]] bool meets_requirement(double error, double epsilon);

/// The same predicate on an output: meets_requirement(output_error(golden,
/// out), epsilon).
[[nodiscard]] bool meets_requirement(std::span<const double> golden,
                                     std::span<const double> out,
                                     double epsilon);

} // namespace tp::tuning
