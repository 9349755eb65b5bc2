#include "tuning/quality.hpp"

#include "util/statistics.hpp"

namespace tp::tuning {

double output_error(std::span<const double> golden, std::span<const double> out) {
    return util::relative_rms_error(golden, out);
}

double output_sqnr(std::span<const double> golden, std::span<const double> out) {
    return util::sqnr(golden, out);
}

bool meets_requirement(double error, double epsilon) {
    // epsilon bounds the noise-to-signal POWER ratio (SQNR >= 1/epsilon).
    return error * error <= epsilon;
}

bool meets_requirement(std::span<const double> golden, std::span<const double> out,
                       double epsilon) {
    return meets_requirement(output_error(golden, out), epsilon);
}

} // namespace tp::tuning
