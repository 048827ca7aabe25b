/**
 * @file
 * Tests of the faultable-instruction taxonomy (paper Table 1).
 */

#include <gtest/gtest.h>

#include "isa/faultable.hh"

namespace {

using namespace suit::isa;

TEST(Faultable, Table1FaultCounts)
{
    EXPECT_EQ(publishedFaultCount(FaultableKind::IMUL), 79);
    EXPECT_EQ(publishedFaultCount(FaultableKind::VOR), 47);
    EXPECT_EQ(publishedFaultCount(FaultableKind::AESENC), 40);
    EXPECT_EQ(publishedFaultCount(FaultableKind::VPADDQ), 1);
}

TEST(Faultable, FaultCountsDescendInTable1Order)
{
    const auto kinds = allFaultableKinds();
    for (std::size_t i = 1; i < kinds.size(); ++i) {
        EXPECT_GE(publishedFaultCount(kinds[i - 1]),
                  publishedFaultCount(kinds[i]));
    }
}

TEST(Faultable, FrequentFaultersHaveHigherVmin)
{
    // Table 1 caption: rarely faulting instructions fault at lower
    // voltages on average.
    const auto kinds = allFaultableKinds();
    for (std::size_t i = 1; i < kinds.size(); ++i) {
        EXPECT_GE(relativeVminMv(kinds[i - 1]),
                  relativeVminMv(kinds[i]));
    }
    // IMUL faults first of all.
    for (FaultableKind k : kinds) {
        if (k != FaultableKind::IMUL) {
            EXPECT_GT(relativeVminMv(FaultableKind::IMUL),
                      relativeVminMv(k));
        }
    }
}

TEST(Faultable, NameRoundTrip)
{
    for (FaultableKind k : allFaultableKinds())
        EXPECT_EQ(faultableKindFromString(toString(k)), k);
}

TEST(Faultable, SimdClassification)
{
    EXPECT_FALSE(isSimd(FaultableKind::IMUL));
    EXPECT_FALSE(isSimd(FaultableKind::AESENC));
    EXPECT_TRUE(isSimd(FaultableKind::VOR));
    EXPECT_TRUE(isSimd(FaultableKind::VSQRTPD));
}

TEST(FaultableSetTest, InsertEraseContains)
{
    FaultableSet s;
    EXPECT_TRUE(s.empty());
    s.insert(FaultableKind::VOR);
    s.insert(FaultableKind::AESENC);
    EXPECT_TRUE(s.contains(FaultableKind::VOR));
    EXPECT_TRUE(s.contains(FaultableKind::AESENC));
    EXPECT_FALSE(s.contains(FaultableKind::IMUL));
    EXPECT_EQ(s.count(), 2);
    s.erase(FaultableKind::VOR);
    EXPECT_FALSE(s.contains(FaultableKind::VOR));
    EXPECT_EQ(s.count(), 1);
}

TEST(FaultableSetTest, AllAndTrapSet)
{
    const FaultableSet all = FaultableSet::all();
    EXPECT_EQ(all.count(), static_cast<int>(kNumFaultableKinds));

    // The trap set excludes only IMUL (hardened statically,
    // paper Sec. 4.2).
    const FaultableSet trap = FaultableSet::suitTrapSet();
    EXPECT_EQ(trap.count(), static_cast<int>(kNumFaultableKinds) - 1);
    EXPECT_FALSE(trap.contains(FaultableKind::IMUL));
    for (FaultableKind k : allFaultableKinds()) {
        if (k != FaultableKind::IMUL) {
            EXPECT_TRUE(trap.contains(k)) << toString(k);
        }
    }
}

TEST(FaultableSetTest, MsrBitsRoundTrip)
{
    FaultableSet s;
    s.insert(FaultableKind::VPCLMULQDQ);
    s.insert(FaultableKind::VPADDQ);
    EXPECT_EQ(FaultableSet::fromBits(s.bits()), s);
}

} // namespace
