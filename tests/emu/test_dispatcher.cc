/**
 * @file
 * Tests of the emulation dispatcher.
 */

#include <gtest/gtest.h>

#include "emu/aes.hh"
#include "emu/dispatcher.hh"
#include "emu/simd_ops.hh"
#include "isa/faultable.hh"
#include "util/rng.hh"

namespace {

using namespace suit::emu;
using suit::isa::allFaultableKinds;
using suit::isa::FaultableKind;
using suit::util::Rng;

TEST(Dispatcher, RoutesBitwiseOps)
{
    Rng rng(21);
    const Vec256 a(rng.next(), rng.next(), rng.next(), rng.next());
    const Vec256 b(rng.next(), rng.next(), rng.next(), rng.next());

    EXPECT_EQ(emulate({FaultableKind::VOR, a, b, 0}), vor(a, b));
    EXPECT_EQ(emulate({FaultableKind::VXOR, a, b, 0}), vxor(a, b));
    EXPECT_EQ(emulate({FaultableKind::VAND, a, b, 0}), vand(a, b));
    EXPECT_EQ(emulate({FaultableKind::VANDN, a, b, 0}), vandn(a, b));
    EXPECT_EQ(emulate({FaultableKind::VPADDQ, a, b, 0}), vpaddq(a, b));
}

TEST(Dispatcher, RoutesImmediateOps)
{
    Rng rng(22);
    const Vec256 a(rng.next(), rng.next(), rng.next(), rng.next());
    const Vec256 b(rng.next(), rng.next(), rng.next(), rng.next());

    EXPECT_EQ(emulate({FaultableKind::VPSRAD, a, b, 7}), vpsrad(a, 7));
    EXPECT_EQ(emulate({FaultableKind::VPCLMULQDQ, a, b, 0x11}),
              vpclmulqdq(a, b, 0x11));
}

TEST(Dispatcher, AesencMatchesReferenceRound)
{
    Rng rng(23);
    Vec256 state(rng.next(), rng.next(), rng.next(), rng.next());
    Vec256 key(rng.next(), rng.next(), rng.next(), rng.next());

    const Vec256 out = emulate({FaultableKind::AESENC, state, key, 0});

    AesBlock sb, kb;
    for (int i = 0; i < 16; ++i) {
        sb[static_cast<std::size_t>(i)] = state.u8(i);
        kb[static_cast<std::size_t>(i)] = key.u8(i);
    }
    const AesBlock expect = aesencRound(sb, kb);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out.u8(i), expect[static_cast<std::size_t>(i)]);
    // Upper 128 bits pass through.
    EXPECT_EQ(out.u64(2), state.u64(2));
    EXPECT_EQ(out.u64(3), state.u64(3));
}

TEST(Dispatcher, ImulReturnsFullProduct)
{
    EmuRequest req;
    req.kind = FaultableKind::IMUL;
    req.a.setU64(0, static_cast<std::uint64_t>(-7));
    req.b.setU64(0, 3);
    const Vec256 out = emulate(req);
    EXPECT_EQ(static_cast<std::int64_t>(out.u64(0)), -21);
    EXPECT_EQ(static_cast<std::int64_t>(out.u64(1)), -1); // sign ext
}

TEST(Dispatcher, EveryKindHasAPositiveCost)
{
    for (FaultableKind kind : allFaultableKinds())
        EXPECT_GT(emulationCostCycles(kind), 0.0)
            << suit::isa::toString(kind);
}

TEST(Dispatcher, AesencIsTheMostExpensiveEmulation)
{
    const double aes = emulationCostCycles(FaultableKind::AESENC);
    for (FaultableKind kind : allFaultableKinds()) {
        if (kind != FaultableKind::AESENC) {
            EXPECT_GT(aes, emulationCostCycles(kind));
        }
    }
}

} // namespace
