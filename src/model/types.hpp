/// \file types.hpp
/// Shared identifiers and unit conversions for the TSCE model.

#pragma once

#include <cstdint>
#include <limits>

namespace tsce::model {

/// Index of a machine in the suite, 0-based.
using MachineId = std::int32_t;
/// Index of an application string, 0-based.
using StringId = std::int32_t;
/// Index of an application within its string, 0-based.
using AppIndex = std::int32_t;

/// Sentinel for "no such id".  MachineId/StringId/AppIndex are all 32-bit
/// signed typedefs; every "is this id valid" comparison goes through this
/// constant instead of a bare -1 literal.
inline constexpr std::int32_t kInvalidId = -1;

/// Sentinel for "application not assigned to any machine".
inline constexpr MachineId kUnassigned = kInvalidId;

/// Intra-machine routes are modeled with infinite bandwidth (paper §6).
inline constexpr double kInfiniteBandwidth = std::numeric_limits<double>::infinity();

/// Converts an output size in Kbytes to megabits (1 KB = 8000 bits).
[[nodiscard]] constexpr double kbytes_to_megabits(double kbytes) noexcept {
  return kbytes * 0.008;
}

/// Transfer time in seconds for \p kbytes over a route of \p mbps bandwidth.
/// Returns 0 for infinite-bandwidth (intra-machine) routes; time-of-flight is
/// negligible per the paper's assumptions.
// Infinity is an exact sentinel, not a measured value, so == is the right
// test; the pragma keeps this site outside the -Werror=float-equal gate of
// the modules that include it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
[[nodiscard]] constexpr double transfer_seconds(double kbytes, double mbps) noexcept {
  if (mbps == kInfiniteBandwidth) return 0.0;
  return kbytes_to_megabits(kbytes) / mbps;
}
#pragma GCC diagnostic pop

}  // namespace tsce::model
