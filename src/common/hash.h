/**
 * @file
 * Order-sensitive 64-bit hash combiner (FNV-1a over 64-bit words),
 * shared by every fingerprint: topology, HardwareParams, planner
 * options and graph signatures.
 */

#ifndef SPINDLE_COMMON_HASH_H
#define SPINDLE_COMMON_HASH_H

#include <bit>
#include <cstdint>

namespace spindle {

/** FNV-1a 64-bit offset basis: the seed of every fingerprint. */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** Fold the word @p v into the running hash @p h. */
inline std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 0x100000001b3ull;
}

/** Fold a double by its bit pattern (so -0.0 and 0.0 differ). */
inline std::uint64_t
mix(std::uint64_t h, double v)
{
    return mix(h, std::bit_cast<std::uint64_t>(v));
}

} // namespace spindle

#endif // SPINDLE_COMMON_HASH_H
