// Simulated time base: signed 64-bit nanoseconds.
#pragma once

#include <cstdint>

namespace mpiv::sim {

using Time = std::int64_t;

constexpr Time kNanosecond = 1;
constexpr Time kMicrosecond = 1000;
constexpr Time kMillisecond = 1000 * kMicrosecond;
constexpr Time kSecond = 1000 * kMillisecond;
constexpr Time kMinute = 60 * kSecond;

constexpr double to_us(Time t) { return static_cast<double>(t) / 1e3; }
constexpr double to_ms(Time t) { return static_cast<double>(t) / 1e6; }
constexpr double to_sec(Time t) { return static_cast<double>(t) / 1e9; }

constexpr Time from_ms(double ms) { return static_cast<Time>(ms * 1e6); }

}  // namespace mpiv::sim
