#include "emu/simd_ops.hh"

#include <cmath>

#include "util/logging.hh"

namespace suit::emu {

Vec256
vor(const Vec256 &a, const Vec256 &b)
{
    Vec256 r;
    for (int i = 0; i < 4; ++i)
        r.setU64(i, a.u64(i) | b.u64(i));
    return r;
}

Vec256
vxor(const Vec256 &a, const Vec256 &b)
{
    Vec256 r;
    for (int i = 0; i < 4; ++i)
        r.setU64(i, a.u64(i) ^ b.u64(i));
    return r;
}

Vec256
vand(const Vec256 &a, const Vec256 &b)
{
    Vec256 r;
    for (int i = 0; i < 4; ++i)
        r.setU64(i, a.u64(i) & b.u64(i));
    return r;
}

Vec256
vandn(const Vec256 &a, const Vec256 &b)
{
    Vec256 r;
    for (int i = 0; i < 4; ++i)
        r.setU64(i, ~a.u64(i) & b.u64(i));
    return r;
}

Vec256
vpaddq(const Vec256 &a, const Vec256 &b)
{
    Vec256 r;
    for (int i = 0; i < 4; ++i)
        r.setU64(i, a.u64(i) + b.u64(i));
    return r;
}

Vec256
vpsrad(const Vec256 &a, int count)
{
    SUIT_ASSERT(count >= 0, "negative shift count %d", count);
    Vec256 r;
    for (int i = 0; i < 8; ++i) {
        const auto lane = static_cast<std::int32_t>(a.u32(i));
        std::int32_t shifted;
        if (count >= 32)
            shifted = lane < 0 ? -1 : 0;
        else
            shifted = lane >> count;
        r.setU32(i, static_cast<std::uint32_t>(shifted));
    }
    return r;
}

Vec256
vpcmpgtd(const Vec256 &a, const Vec256 &b)
{
    Vec256 r;
    for (int i = 0; i < 8; ++i) {
        const auto la = static_cast<std::int32_t>(a.u32(i));
        const auto lb = static_cast<std::int32_t>(b.u32(i));
        r.setU32(i, la > lb ? 0xFFFFFFFFu : 0u);
    }
    return r;
}

Vec256
vpmaxsd(const Vec256 &a, const Vec256 &b)
{
    Vec256 r;
    for (int i = 0; i < 8; ++i) {
        const auto la = static_cast<std::int32_t>(a.u32(i));
        const auto lb = static_cast<std::int32_t>(b.u32(i));
        r.setU32(i, static_cast<std::uint32_t>(la > lb ? la : lb));
    }
    return r;
}

Vec256
vsqrtpd(const Vec256 &a)
{
    Vec256 r;
    for (int i = 0; i < 4; ++i)
        r.setF64(i, std::sqrt(a.f64(i)));
    return r;
}

std::uint64_t
clmul64(std::uint64_t a, std::uint64_t b, std::uint64_t *hi)
{
    std::uint64_t lo = 0;
    std::uint64_t high = 0;
    for (int i = 0; i < 64; ++i) {
        if ((b >> i) & 1) {
            lo ^= a << i;
            if (i > 0)
                high ^= a >> (64 - i);
        }
    }
    if (hi)
        *hi = high;
    return lo;
}

Vec256
vpclmulqdq(const Vec256 &a, const Vec256 &b, int imm)
{
    Vec256 r;
    for (int lane = 0; lane < 2; ++lane) {
        const std::uint64_t qa = a.u64(2 * lane + ((imm >> 0) & 1));
        const std::uint64_t qb = b.u64(2 * lane + ((imm >> 4) & 1));
        std::uint64_t hi = 0;
        const std::uint64_t lo = clmul64(qa, qb, &hi);
        r.setU64(2 * lane, lo);
        r.setU64(2 * lane + 1, hi);
    }
    return r;
}

Int128
imulFull(std::int64_t a, std::int64_t b)
{
    const __int128 p = static_cast<__int128>(a) * b;
    Int128 r;
    r.lo = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(p));
    r.hi = static_cast<std::int64_t>(p >> 64);
    return r;
}

} // namespace suit::emu
