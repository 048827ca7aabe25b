/**
 * @file
 * Scalar (non-vectorised) semantics of the faultable SIMD
 * instructions (paper Table 1, Sec. 3.4).
 *
 * These functions are the emulation payloads SUIT's OS maps into a
 * trapped program's address space: each computes the architectural
 * result of one disabled instruction using only scalar operations,
 * so they run safely on the efficient DVFS curve.  They also serve
 * as the golden model for the fault-injection framework.
 */

#ifndef SUIT_EMU_SIMD_OPS_HH
#define SUIT_EMU_SIMD_OPS_HH

#include <cstdint>

#include "emu/vec.hh"

namespace suit::emu {

/** Bitwise OR of two 256-bit values (VOR / VPOR). */
Vec256 vor(const Vec256 &a, const Vec256 &b);

/** Bitwise XOR (VXOR / VPXOR). */
Vec256 vxor(const Vec256 &a, const Vec256 &b);

/** Bitwise AND (VAND / VPAND). */
Vec256 vand(const Vec256 &a, const Vec256 &b);

/** Bitwise AND-NOT: (~a) & b, matching the x86 VANDN convention. */
Vec256 vandn(const Vec256 &a, const Vec256 &b);

/** Packed 64-bit addition, 4 lanes, wrap-around (VPADDQ). */
Vec256 vpaddq(const Vec256 &a, const Vec256 &b);

/**
 * Packed arithmetic shift right of 8 signed 32-bit lanes (VPSRAD).
 * Shift counts >= 32 fill each lane with its sign bit, like the
 * hardware instruction.
 */
Vec256 vpsrad(const Vec256 &a, int count);

/**
 * Packed signed 32-bit compare-greater-than (VPCMPGTD): each lane is
 * all-ones where a > b, else zero.
 */
Vec256 vpcmpgtd(const Vec256 &a, const Vec256 &b);

/** Packed signed 32-bit maximum (VPMAXSD). */
Vec256 vpmaxsd(const Vec256 &a, const Vec256 &b);

/** Packed double-precision square root, 4 lanes (VSQRTPD). */
Vec256 vsqrtpd(const Vec256 &a);

/**
 * Carry-less (GF(2)[x]) multiplication of two 64-bit quadwords
 * selected by @p imm, per 128-bit lane (VPCLMULQDQ).
 *
 * imm bit 0 selects the low/high qword of @p a's lane, bit 4 of
 * @p b's lane; the 128-bit product replaces the lane.
 */
Vec256 vpclmulqdq(const Vec256 &a, const Vec256 &b, int imm);

/**
 * Carry-less multiply of two bare 64-bit values; @p hi receives the
 * upper 64 product bits.  The building block of vpclmulqdq(), used
 * directly by tests and the GHASH example.
 */
std::uint64_t clmul64(std::uint64_t a, std::uint64_t b,
                      std::uint64_t *hi);

/** 64x64 -> 128-bit signed multiply (the IMUL reference semantics). */
struct Int128
{
    std::uint64_t lo = 0;
    std::int64_t hi = 0;

    bool operator==(const Int128 &other) const = default;
};

/** Full signed multiply, returning both product halves. */
Int128 imulFull(std::int64_t a, std::int64_t b);

} // namespace suit::emu

#endif // SUIT_EMU_SIMD_OPS_HH
