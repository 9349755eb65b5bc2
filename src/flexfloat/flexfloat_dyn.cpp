#include "flexfloat/flexfloat_dyn.hpp"

#include <ostream>

#include "types/encoding.hpp"

namespace tp {

std::uint64_t FlexFloatDyn::bits() const noexcept { return encode(value_, format_); }

FlexFloatDyn FlexFloatDyn::from_bits(std::uint64_t bits, FpFormat format) noexcept {
    FlexFloatDyn result;
    result.value_ = decode(bits & bit_mask(format), format);
    result.format_ = format;
    return result;
}

std::ostream& operator<<(std::ostream& os, const FlexFloatDyn& x) {
    return os << x.value();
}

} // namespace tp
