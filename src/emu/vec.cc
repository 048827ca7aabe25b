#include "emu/vec.hh"

#include "util/logging.hh"

namespace suit::emu {

Vec256
Vec256::fromDoubles(double d0, double d1, double d2, double d3)
{
    Vec256 v;
    v.setF64(0, d0);
    v.setF64(1, d1);
    v.setF64(2, d2);
    v.setF64(3, d3);
    return v;
}

Vec256
Vec256::fromBytes(const std::uint8_t *bytes)
{
    Vec256 v;
    std::memcpy(v.words_.data(), bytes, 32);
    return v;
}

std::uint64_t
Vec256::u64(int lane) const
{
    SUIT_ASSERT(lane >= 0 && lane < 4, "u64 lane %d out of range", lane);
    return words_[static_cast<std::size_t>(lane)];
}

void
Vec256::setU64(int lane, std::uint64_t v)
{
    SUIT_ASSERT(lane >= 0 && lane < 4, "u64 lane %d out of range", lane);
    words_[static_cast<std::size_t>(lane)] = v;
}

std::uint32_t
Vec256::u32(int lane) const
{
    SUIT_ASSERT(lane >= 0 && lane < 8, "u32 lane %d out of range", lane);
    const std::uint64_t w = words_[static_cast<std::size_t>(lane / 2)];
    return static_cast<std::uint32_t>(lane % 2 ? w >> 32 : w);
}

void
Vec256::setU32(int lane, std::uint32_t v)
{
    SUIT_ASSERT(lane >= 0 && lane < 8, "u32 lane %d out of range", lane);
    std::uint64_t &w = words_[static_cast<std::size_t>(lane / 2)];
    if (lane % 2) {
        w = (w & 0x00000000FFFFFFFFULL) |
            (static_cast<std::uint64_t>(v) << 32);
    } else {
        w = (w & 0xFFFFFFFF00000000ULL) | v;
    }
}

std::uint8_t
Vec256::u8(int lane) const
{
    SUIT_ASSERT(lane >= 0 && lane < 32, "u8 lane %d out of range", lane);
    const std::uint64_t w = words_[static_cast<std::size_t>(lane / 8)];
    return static_cast<std::uint8_t>(w >> (8 * (lane % 8)));
}

void
Vec256::setU8(int lane, std::uint8_t v)
{
    SUIT_ASSERT(lane >= 0 && lane < 32, "u8 lane %d out of range", lane);
    std::uint64_t &w = words_[static_cast<std::size_t>(lane / 8)];
    const int shift = 8 * (lane % 8);
    w = (w & ~(0xFFULL << shift)) |
        (static_cast<std::uint64_t>(v) << shift);
}

double
Vec256::f64(int lane) const
{
    double d;
    const std::uint64_t w = u64(lane);
    std::memcpy(&d, &w, sizeof(d));
    return d;
}

void
Vec256::setF64(int lane, double v)
{
    std::uint64_t w;
    std::memcpy(&w, &v, sizeof(w));
    setU64(lane, w);
}

void
Vec256::toBytes(std::uint8_t *out) const
{
    std::memcpy(out, words_.data(), 32);
}

} // namespace suit::emu
