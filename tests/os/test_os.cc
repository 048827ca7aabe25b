/**
 * @file
 * Tests of the OS model: MSR file and the #DO emulation charge.
 */

#include <gtest/gtest.h>

#include "os/exception.hh"
#include "os/msr.hh"
#include "power/cpu_model.hh"

namespace {

using namespace suit::os;

TEST(MsrFileTest, ReadsZeroWhenUnwritten)
{
    MsrFile msrs;
    EXPECT_EQ(msrs.read(MSR_SUIT_DVFS_CURVE), 0u);
    EXPECT_FALSE(msrs.wasWritten(MSR_SUIT_DVFS_CURVE));
}

TEST(MsrFileTest, WriteReadRoundTrip)
{
    MsrFile msrs;
    EXPECT_EQ(msrs.write(MSR_IA32_PERF_CTL, 0x1D00), MsrWriteResult::Ok);
    EXPECT_EQ(msrs.read(MSR_IA32_PERF_CTL), 0x1D00u);
    EXPECT_TRUE(msrs.wasWritten(MSR_IA32_PERF_CTL));
}

TEST(MsrFileTest, WriteHookCanReject)
{
    MsrFile msrs;
    msrs.setWriteHook(MSR_SUIT_DVFS_CURVE, [](std::uint64_t v) {
        return v <= 1 ? MsrWriteResult::Ok : MsrWriteResult::Fault;
    });
    EXPECT_EQ(msrs.write(MSR_SUIT_DVFS_CURVE, 1), MsrWriteResult::Ok);
    EXPECT_EQ(msrs.write(MSR_SUIT_DVFS_CURVE, 7),
              MsrWriteResult::Fault);
    // Rejected writes leave the old value intact.
    EXPECT_EQ(msrs.read(MSR_SUIT_DVFS_CURVE), 1u);
}

TEST(EmulationCostTest, CostsMatchSec53)
{
    // Round trip (paper Sec. 5.3: 0.77 us on the i9, 0.27 us on the
    // 7700X) plus the software body at the base frequency.
    const suit::power::CpuModel i9 = suit::power::cpuA_i9_9900k();
    const suit::power::CpuModel amd = suit::power::cpuB_ryzen7700x();
    for (const auto kind : suit::isa::allFaultableKinds()) {
        const auto body = [&](const suit::power::CpuModel &cpu) {
            return suit::util::secondsToTicks(
                suit::emu::emulationCostCycles(kind) / cpu.baseFreqHz());
        };
        EXPECT_EQ(emulationCostTicks(i9, kind),
                  suit::util::microsecondsToTicks(0.77) + body(i9))
            << suit::isa::toString(kind);
        EXPECT_EQ(emulationCostTicks(amd, kind),
                  suit::util::microsecondsToTicks(0.27) + body(amd))
            << suit::isa::toString(kind);
        EXPECT_LT(emulationCostTicks(amd, kind),
                  emulationCostTicks(i9, kind));
    }
}

TEST(EmulationCostTest, AesCostsMoreThanBitwise)
{
    for (const auto &cpu : {suit::power::cpuA_i9_9900k(),
                            suit::power::cpuB_ryzen7700x()}) {
        EXPECT_GT(emulationCostTicks(cpu, suit::isa::FaultableKind::AESENC),
                  emulationCostTicks(cpu, suit::isa::FaultableKind::VOR))
            << cpu.name();
    }
}

} // namespace
