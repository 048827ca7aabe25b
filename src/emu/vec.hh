/**
 * @file
 * 256-bit vector value type.
 *
 * The operand/result container for the instruction-emulation layer
 * (paper Sec. 3.4): a plain 256-bit register image with typed lane
 * views.  Lane order is little-endian like the x86 YMM registers the
 * emulated instructions operate on.
 */

#ifndef SUIT_EMU_VEC_HH
#define SUIT_EMU_VEC_HH

#include <array>
#include <cstdint>
#include <cstring>

namespace suit::emu {

/** A 256-bit register image with u8/u32/u64/f64 lane accessors. */
class Vec256
{
  public:
    /** Zero value. */
    constexpr Vec256() : words_{} {}

    /** Construct from four 64-bit words (word 0 = least significant). */
    constexpr Vec256(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
                     std::uint64_t w3)
        : words_{w0, w1, w2, w3}
    {}

    /** Broadcast a 64-bit word into all four lanes. */
    static constexpr Vec256
    broadcast64(std::uint64_t w)
    {
        return Vec256(w, w, w, w);
    }

    /** Construct from four doubles (lane 0 first). */
    static Vec256 fromDoubles(double d0, double d1, double d2, double d3);

    /** Construct from raw bytes (32 bytes, byte 0 first). */
    static Vec256 fromBytes(const std::uint8_t *bytes);

    /** @{ 64-bit lane access. */
    std::uint64_t u64(int lane) const;
    void setU64(int lane, std::uint64_t v);
    /** @} */

    /** @{ 32-bit lane access (8 lanes). */
    std::uint32_t u32(int lane) const;
    void setU32(int lane, std::uint32_t v);
    /** @} */

    /** @{ Byte access (32 lanes). */
    std::uint8_t u8(int lane) const;
    void setU8(int lane, std::uint8_t v);
    /** @} */

    /** @{ Double-precision lane access (4 lanes). */
    double f64(int lane) const;
    void setF64(int lane, double v);
    /** @} */

    /** Copy out all 32 bytes. */
    void toBytes(std::uint8_t *out) const;

    bool operator==(const Vec256 &other) const = default;

  private:
    std::array<std::uint64_t, 4> words_;
};

} // namespace suit::emu

#endif // SUIT_EMU_VEC_HH
