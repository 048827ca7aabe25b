/**
 * @file
 * FNV-1a, the one non-cryptographic hash of the project.
 *
 * It seeds the trace and program generators from workload names,
 * fingerprints sweep grids and fleet specs, checksums journal
 * records and keys the trace cache.  Several of those values reach
 * output bytes (traces, journal headers), so the function must never
 * change.
 */

#ifndef SUIT_UTIL_HASH_HH
#define SUIT_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>

namespace suit::util {

/** The 64-bit FNV offset basis. */
inline constexpr std::uint64_t kFnv1a64Basis = 0xCBF29CE484222325ULL;

/** FNV-1a over a byte range; chainable via @p seed. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size,
        std::uint64_t seed = kFnv1a64Basis)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

} // namespace suit::util

#endif // SUIT_UTIL_HASH_HH
