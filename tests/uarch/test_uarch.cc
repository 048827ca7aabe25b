/**
 * @file
 * Tests of the out-of-order model: caches, branch prediction,
 * program generation, pipeline timing properties and the #DO trap
 * path.
 */

#include <gtest/gtest.h>

#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/o3_model.hh"
#include "uarch/program.hh"

namespace {

using namespace suit::uarch;
using suit::isa::FaultableKind;
using suit::isa::FaultableSet;

// ---------------------------------------------------------------
// Caches
// ---------------------------------------------------------------

TEST(CacheTest, HitAfterMiss)
{
    Cache c({"L1", 1024, 2, 64, 3}, nullptr);
    EXPECT_EQ(c.access(0x100, 100), 103); // miss to memory
    EXPECT_EQ(c.access(0x100, 100), 3);   // hit
    EXPECT_EQ(c.access(0x13F, 100), 3);   // same line
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.accesses(), 3u);
}

TEST(CacheTest, LruEviction)
{
    // 2 ways, 64 B lines, 8 sets (1 kB): three lines mapping to one
    // set evict the least recently used.
    Cache c({"L1", 1024, 2, 64, 1}, nullptr);
    const std::uint64_t set_stride = 8 * 64;
    c.access(0 * set_stride, 10);
    c.access(1 * set_stride, 10);
    c.access(0 * set_stride, 10); // refresh line 0
    c.access(2 * set_stride, 10); // evicts line 1
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(set_stride));
    EXPECT_TRUE(c.contains(2 * set_stride));
}

TEST(CacheTest, MissLatencyChainsThroughLevels)
{
    Cache llc({"LLC", 4096, 4, 64, 20}, nullptr);
    Cache l1({"L1", 1024, 2, 64, 2}, &llc);
    // Cold: L1 miss -> LLC miss -> memory.
    EXPECT_EQ(l1.access(0x40, 200), 2 + 20 + 200);
    // L1 hit now.
    EXPECT_EQ(l1.access(0x40, 200), 2);
    // Evicted from L1 but still in LLC: L1 miss, LLC hit.
    Cache l1b({"L1", 128, 1, 64, 2}, &llc);
    l1b.access(0x40, 200);
    l1b.access(0x40 + 128, 200); // evicts (1 way, 2 sets)
    EXPECT_EQ(l1b.access(0x40, 200), 2 + 20);
}

TEST(MemoryHierarchyTest, Table5Defaults)
{
    MemoryHierarchy mem;
    EXPECT_EQ(mem.l1i().config().sizeBytes, 64u * 1024);
    EXPECT_EQ(mem.l1d().config().sizeBytes, 32u * 1024);
    EXPECT_EQ(mem.llc().config().sizeBytes, 2u * 1024 * 1024);
}

// ---------------------------------------------------------------
// Branch predictor
// ---------------------------------------------------------------

TEST(BranchTest, LearnsABiasedBranch)
{
    GsharePredictor bp(10);
    for (int i = 0; i < 20; ++i)
        bp.update(0x400, true);
    EXPECT_TRUE(bp.predict(0x400));
    const std::uint64_t before = bp.mispredicts();
    for (int i = 0; i < 100; ++i)
        bp.update(0x400, true);
    EXPECT_EQ(bp.mispredicts(), before);
}

TEST(BranchTest, DistinguishesSites)
{
    GsharePredictor bp(12);
    for (int i = 0; i < 10; ++i) {
        bp.update(0x400, true);
        bp.update(0x800, false);
    }
    EXPECT_TRUE(bp.predict(0x400));
    EXPECT_FALSE(bp.predict(0x800));
}

// ---------------------------------------------------------------
// Program generation
// ---------------------------------------------------------------

TEST(ProgramTest, DeterministicAndSized)
{
    const ProgramGenerator gen(3);
    const Program a = gen.generate(specIntLikeMix(), 10'000);
    const Program b = gen.generate(specIntLikeMix(), 10'000);
    ASSERT_EQ(a.insts.size(), 10'000u);
    for (std::size_t i = 0; i < 200; ++i) {
        EXPECT_EQ(a.insts[i].op, b.insts[i].op);
        EXPECT_EQ(a.insts[i].addr, b.insts[i].addr);
    }
}

TEST(ProgramTest, MixDensitiesApproximatelyRespected)
{
    const Program p =
        ProgramGenerator(5).generate(x264LikeMix(), 400'000);
    std::size_t imuls = 0, branches = 0;
    for (const Inst &inst : p.insts) {
        imuls += inst.op == OpClass::IntMul;
        branches += inst.op == OpClass::Branch;
    }
    // Sec. 6.1: 0.99 % IMUL in x264.
    EXPECT_NEAR(static_cast<double>(imuls) / 400'000, 0.0099, 0.004);
    EXPECT_GT(branches, 10'000u);
}

TEST(ProgramTest, FaultableAnnotationsMatchOpClasses)
{
    const Program p =
        ProgramGenerator(6).generate(aesServiceMix(), 50'000);
    for (const Inst &inst : p.insts) {
        switch (inst.op) {
          case OpClass::IntMul:
            ASSERT_TRUE(inst.faultable.has_value());
            EXPECT_EQ(*inst.faultable, FaultableKind::IMUL);
            break;
          case OpClass::Aes:
            ASSERT_TRUE(inst.faultable.has_value());
            EXPECT_EQ(*inst.faultable, FaultableKind::AESENC);
            break;
          case OpClass::SimdAlu:
            ASSERT_TRUE(inst.faultable.has_value());
            EXPECT_TRUE(suit::isa::isSimd(*inst.faultable));
            break;
          default:
            EXPECT_FALSE(inst.faultable.has_value());
        }
    }
}

TEST(ProgramTest, MemOpsCarryAddressesInsideFootprint)
{
    const ProgramMix mix = specFpLikeMix();
    const Program p = ProgramGenerator(7).generate(mix, 50'000);
    for (const Inst &inst : p.insts) {
        if (inst.isMem()) {
            EXPECT_LT(inst.addr, mix.footprintBytes);
        }
    }
}

// ---------------------------------------------------------------
// Pipeline timing
// ---------------------------------------------------------------

TEST(O3ModelTest, IpcIsPlausible)
{
    const CoreStats s =
        runMixAtImulLatency(specIntLikeMix(), 200'000, 3);
    EXPECT_EQ(s.instructions, 200'000u);
    EXPECT_GT(s.ipc(), 0.3);
    EXPECT_LT(s.ipc(), 8.0);
}

TEST(O3ModelTest, HigherImulLatencyNeverSpeedsUp)
{
    for (const ProgramMix &mix :
         {specIntLikeMix(), x264LikeMix(), memBoundMix()}) {
        const CoreStats base = runMixAtImulLatency(mix, 150'000, 3);
        const CoreStats slow = runMixAtImulLatency(mix, 150'000, 30);
        EXPECT_GE(slow.cycles, base.cycles) << mix.name;
    }
}

TEST(O3ModelTest, X264IsMostImulSensitive)
{
    auto delta = [](const ProgramMix &mix) {
        const CoreStats a = runMixAtImulLatency(mix, 200'000, 3);
        const CoreStats b = runMixAtImulLatency(mix, 200'000, 30);
        return static_cast<double>(b.cycles) /
                   static_cast<double>(a.cycles) -
               1.0;
    };
    const double x264 = delta(x264LikeMix());
    EXPECT_GT(x264, delta(specIntLikeMix()));
    EXPECT_GT(x264, delta(specFpLikeMix()));
    // The paper's central claim: +1 cycle is nearly free.
    const CoreStats a = runMixAtImulLatency(x264LikeMix(), 200'000, 3);
    const CoreStats b = runMixAtImulLatency(x264LikeMix(), 200'000, 4);
    const double suit_cost = static_cast<double>(b.cycles) /
                                 static_cast<double>(a.cycles) -
                             1.0;
    EXPECT_LT(suit_cost, 0.03);
    EXPECT_GT(suit_cost, 0.0);
}

TEST(O3ModelTest, WiderRobHelpsMemBoundCode)
{
    CoreConfig narrow;
    narrow.robSize = 32;
    CoreConfig wide;
    wide.robSize = 320;
    const Program p =
        ProgramGenerator(8).generate(memBoundMix(), 100'000);
    O3Model a(narrow), b(wide);
    EXPECT_GT(a.run(p).cycles, b.run(p).cycles);
}

TEST(O3ModelTest, MispredictsCostCycles)
{
    ProgramMix noisy = branchyMix();
    noisy.noisyBranchRate = 0.5;
    ProgramMix clean = branchyMix();
    clean.noisyBranchRate = 0.0;
    const Program pn = ProgramGenerator(9).generate(noisy, 100'000);
    const Program pc = ProgramGenerator(9).generate(clean, 100'000);
    O3Model a, b;
    const CoreStats sn = a.run(pn);
    const CoreStats sc = b.run(pc);
    EXPECT_GT(sn.mispredicts, 4 * sc.mispredicts);
    EXPECT_GT(sn.cycles, sc.cycles);
}

// ---------------------------------------------------------------
// #DO trap path
// ---------------------------------------------------------------

TEST(O3ModelTest, TrapsOnEveryDisabledInstruction)
{
    O3Model core;
    core.setDisabledSet(FaultableSet::suitTrapSet());
    std::uint64_t handled = 0;
    core.setTrapHandler([&](FaultableKind, std::uint64_t,
                             std::uint64_t) {
        ++handled;
        UarchTrapAction a;
        a.emulate = true;
        a.extraCycles = 100;
        a.newDisabledSet = FaultableSet::suitTrapSet();
        return a;
    });

    const Program p =
        ProgramGenerator(10).generate(aesServiceMix(), 20'000);
    std::uint64_t expected = 0;
    for (const Inst &inst : p.insts) {
        expected += inst.faultable.has_value() &&
                    FaultableSet::suitTrapSet().contains(
                        *inst.faultable);
    }
    const CoreStats s = core.run(p);
    EXPECT_EQ(s.traps, expected);
    EXPECT_EQ(handled, expected);
    EXPECT_EQ(s.emulated, expected);
}

TEST(O3ModelTest, HardenedImulDoesNotTrap)
{
    // IMUL is not in the SUIT trap set (hardened via latency).
    O3Model core;
    core.setDisabledSet(FaultableSet::suitTrapSet());
    core.setTrapHandler([](FaultableKind kind, std::uint64_t,
                            std::uint64_t) {
        EXPECT_NE(kind, FaultableKind::IMUL);
        UarchTrapAction a;
        a.emulate = true;
        a.newDisabledSet = FaultableSet::suitTrapSet();
        return a;
    });
    ProgramMix mix = specIntLikeMix();
    mix.weights[static_cast<std::size_t>(OpClass::SimdAlu)] = 0.0;
    const Program p = ProgramGenerator(11).generate(mix, 50'000);
    const CoreStats s = core.run(p);
    EXPECT_EQ(s.traps, 0u);
}

TEST(O3ModelTest, HandlerCanReEnableInstructions)
{
    // First trap re-enables the set (curve-switching policy): the
    // remaining faultable instructions run natively.
    O3Model core;
    core.setDisabledSet(FaultableSet::suitTrapSet());
    core.setTrapHandler([](FaultableKind, std::uint64_t,
                            std::uint64_t) {
        UarchTrapAction a;
        a.emulate = false;              // re-execute after the switch
        a.extraCycles = 90'000;         // ~30 us switch at 3 GHz
        a.newDisabledSet = FaultableSet{}; // everything enabled
        return a;
    });
    const Program p =
        ProgramGenerator(12).generate(aesServiceMix(), 20'000);
    const CoreStats s = core.run(p);
    EXPECT_EQ(s.traps, 1u);
    EXPECT_EQ(s.emulated, 0u);
}

TEST(O3ModelTest, TrapCostsShowUpInCycles)
{
    const Program p =
        ProgramGenerator(13).generate(aesServiceMix(), 20'000);

    O3Model plain;
    const CoreStats base = plain.run(p);

    O3Model trapping;
    trapping.setDisabledSet(FaultableSet::suitTrapSet());
    trapping.setTrapHandler([](FaultableKind, std::uint64_t,
                                std::uint64_t) {
        UarchTrapAction a;
        a.emulate = true;
        a.extraCycles = 2000;
        a.newDisabledSet = FaultableSet::suitTrapSet();
        return a;
    });
    const CoreStats slow = trapping.run(p);
    EXPECT_GT(slow.cycles, base.cycles + slow.traps * 2000);
}

} // namespace
