/**
 * @file
 * Tests of the fault model: Vmin assignment, injection, the
 * Table 1-style characterization and the attack simulation.
 */

#include <gtest/gtest.h>

#include "faults/attack.hh"
#include "faults/characterizer.hh"
#include "faults/injector.hh"
#include "faults/vmin_model.hh"
#include "power/pstate.hh"
#include "util/rng.hh"

namespace {

using namespace suit::faults;
using suit::isa::allFaultableKinds;
using suit::isa::FaultableKind;

VminModel
makeModel(std::uint64_t seed = 2024)
{
    static const suit::power::DvfsCurve curve =
        suit::power::i9_9900kCurve();
    VminConfig cfg;
    cfg.curve = &curve;
    cfg.cores = 4;
    cfg.seed = seed;
    return VminModel(cfg);
}

TEST(VminModelTest, ImulFaultsFirst)
{
    const VminModel m = makeModel();
    for (int core = 0; core < 4; ++core) {
        for (FaultableKind kind : allFaultableKinds()) {
            if (kind == FaultableKind::IMUL)
                continue;
            EXPECT_GT(m.vminMv(core, FaultableKind::IMUL, 4.5e9),
                      m.vminMv(core, kind, 4.5e9))
                << "core " << core << " kind "
                << suit::isa::toString(kind);
        }
    }
}

TEST(VminModelTest, VminIsBelowCurveVoltage)
{
    const VminModel m = makeModel();
    const auto &curve = *m.config().curve;
    for (double ghz : {3.0, 4.0, 5.0}) {
        const double supply = curve.voltageAtMv(ghz * 1e9);
        for (FaultableKind kind : allFaultableKinds()) {
            EXPECT_LT(m.vminMv(0, kind, ghz * 1e9), supply)
                << "at " << ghz << " GHz";
        }
    }
}

TEST(VminModelTest, ProcessVariationAcrossCoresAndChips)
{
    const VminModel m = makeModel();
    // Cores of one chip differ.
    bool core_differs = false;
    for (int c = 1; c < 4; ++c) {
        core_differs |=
            m.vminMv(c, FaultableKind::IMUL, 4.5e9) !=
            m.vminMv(0, FaultableKind::IMUL, 4.5e9);
    }
    EXPECT_TRUE(core_differs);
    // Chips (seeds) differ.
    const VminModel other = makeModel(999);
    EXPECT_NE(m.vminMv(0, FaultableKind::IMUL, 4.5e9),
              other.vminMv(0, FaultableKind::IMUL, 4.5e9));
}

TEST(VminModelTest, FaultProbabilityRamp)
{
    const VminModel m = makeModel();
    const double vmin = m.vminMv(0, FaultableKind::IMUL, 4.5e9);
    EXPECT_DOUBLE_EQ(
        m.faultProbability(0, FaultableKind::IMUL, 4.5e9, vmin + 1),
        0.0);
    const double mid = m.faultProbability(0, FaultableKind::IMUL,
                                          4.5e9, vmin - 10);
    EXPECT_GT(mid, 0.3);
    EXPECT_LT(mid, 0.7);
    EXPECT_DOUBLE_EQ(
        m.faultProbability(0, FaultableKind::IMUL, 4.5e9, vmin - 50),
        1.0);
}

TEST(FaultInjectorTest, CorrectAboveVmin)
{
    const VminModel m = makeModel();
    FaultInjector inj(&m);
    const double safe = m.config().curve->voltageAtMv(4.5e9);

    suit::util::Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        suit::emu::EmuRequest req;
        req.kind = FaultableKind::VXOR;
        req.a = suit::emu::Vec256(rng.next(), rng.next(), rng.next(),
                                  rng.next());
        req.b = suit::emu::Vec256(rng.next(), rng.next(), rng.next(),
                                  rng.next());
        const ExecOutcome out = inj.execute(req, 0, 4.5e9, safe);
        EXPECT_FALSE(out.faulted);
        EXPECT_FALSE(out.crashed);
        EXPECT_EQ(out.value, suit::emu::emulate(req));
    }
    EXPECT_EQ(inj.faultCount(), 0u);
}

TEST(FaultInjectorTest, FaultsWellBelowVmin)
{
    const VminModel m = makeModel();
    FaultInjector inj(&m);
    const double vmin = m.vminMv(0, FaultableKind::IMUL, 4.5e9);

    int faults = 0;
    for (int i = 0; i < 50; ++i) {
        suit::emu::EmuRequest req;
        req.kind = FaultableKind::IMUL;
        req.a.setU64(0, 0x123456789ABCDEFull + i);
        req.b.setU64(0, 0xFEDCBA987654321ull);
        const ExecOutcome out =
            inj.execute(req, 0, 4.5e9, vmin - 30);
        ASSERT_FALSE(out.crashed);
        faults += out.faulted;
        if (out.faulted) {
            EXPECT_NE(out.value, suit::emu::emulate(req));
        }
    }
    EXPECT_EQ(faults, 50); // 30 mV below the onset ramp: always
}

TEST(FaultInjectorTest, CrashesBelowCrashVoltage)
{
    const VminModel m = makeModel();
    FaultInjector inj(&m);
    suit::emu::EmuRequest req;
    req.kind = FaultableKind::VOR;
    const ExecOutcome out = inj.execute(
        req, 0, 4.5e9, m.crashVoltageMv(0, 4.5e9) - 5.0);
    EXPECT_TRUE(out.crashed);
    EXPECT_FALSE(out.faulted);
}

TEST(CharacterizerTest, ReproducesTable1Ordering)
{
    const VminModel m = makeModel();
    CharacterizerConfig cfg;
    cfg.samplesPerPoint = 20;
    Characterizer ch(&m, cfg);
    const CharacterizationResult r = ch.run();

    const auto count = [&](FaultableKind k) {
        return r.faultCounts[static_cast<std::size_t>(k)];
    };
    // IMUL faults most, the low-Vmin stragglers least (Table 1).
    EXPECT_GT(count(FaultableKind::IMUL), count(FaultableKind::VOR));
    EXPECT_GT(count(FaultableKind::VOR),
              count(FaultableKind::VPCMP));
    EXPECT_GE(count(FaultableKind::VPCMP),
              count(FaultableKind::VPADDQ));
    EXPECT_GT(count(FaultableKind::IMUL), 0);

    // IMUL also faults at the shallowest offsets.
    const auto first = [&](FaultableKind k) {
        return r.firstFaultMv[static_cast<std::size_t>(k)];
    };
    EXPECT_GT(first(FaultableKind::IMUL), 0.0);
    EXPECT_LE(first(FaultableKind::IMUL),
              first(FaultableKind::VAND));
    EXPECT_GT(r.totalExecutions, 0u);
}

TEST(VminModelTest, CoolerCoresTolerateDeeperUndervolts)
{
    // Table 3: the same chip at 50 degC survives ~35 mV deeper
    // offsets than at 88 degC.
    static const suit::power::DvfsCurve curve =
        suit::power::i9_9900kCurve();
    VminConfig hot_cfg;
    hot_cfg.curve = &curve;
    hot_cfg.cores = 2;
    hot_cfg.temperatureC = 88.0;
    VminConfig cool_cfg = hot_cfg;
    cool_cfg.temperatureC = 50.0;
    const VminModel hot(hot_cfg);
    const VminModel cool(cool_cfg);

    EXPECT_NEAR(hot.vminMv(0, FaultableKind::IMUL, 4.0e9) -
                    cool.vminMv(0, FaultableKind::IMUL, 4.0e9),
                35.0, 1e-9);
    EXPECT_NEAR(hot.crashVoltageMv(0, 4.0e9) -
                    cool.crashVoltageMv(0, 4.0e9),
                35.0, 1e-9);
    // A marginal supply that faults hot is stable cool.
    const double marginal =
        hot.vminMv(0, FaultableKind::IMUL, 4.0e9) - 10.0;
    EXPECT_GT(hot.faultProbability(0, FaultableKind::IMUL, 4.0e9,
                                   marginal),
              0.0);
    EXPECT_DOUBLE_EQ(cool.faultProbability(0, FaultableKind::IMUL,
                                           4.0e9, marginal),
                     0.0);
}

TEST(AttackTest, BaselineIsCompromisedSuitIsNot)
{
    const VminModel m = makeModel();
    AttackConfig cfg;
    cfg.attempts = 2000;

    const AttackResult base = attackBaseline(m, cfg);
    EXPECT_GT(base.faultyResults, 0u);
    EXPECT_TRUE(base.keyRecoveryFeasible);
    EXPECT_EQ(base.traps, 0u);

    const AttackResult suit = attackWithSuit(m, cfg);
    EXPECT_EQ(suit.faultyResults, 0u);
    EXPECT_FALSE(suit.keyRecoveryFeasible);
    // Every victim invocation trapped instead.
    EXPECT_EQ(suit.traps, suit.attempts);
}

TEST(VminModelTest, HardenedImulNeverFaultsAtSuitOffsets)
{
    // The 4-cycle IMUL's Vmin drops by ~220 mV (Fig. 13): at SUIT's
    // -97 mV operating point it is rock solid, and in fact it sits
    // below the crash voltage, so it can never silently fault.
    static const suit::power::DvfsCurve curve =
        suit::power::i9_9900kCurve();
    VminConfig cfg;
    cfg.curve = &curve;
    cfg.cores = 4;
    cfg.hardenedImul = true;
    const VminModel m(cfg);

    for (int core = 0; core < 4; ++core) {
        const double nominal = curve.voltageAtMv(4.5e9);
        EXPECT_DOUBLE_EQ(
            m.faultProbability(core, FaultableKind::IMUL, 4.5e9,
                               nominal - 97.0),
            0.0);
        EXPECT_LT(m.vminMv(core, FaultableKind::IMUL, 4.5e9),
                  m.crashVoltageMv(core, 4.5e9));
    }
}

/** The i9 model with SUIT's 4-cycle IMUL (Sec. 4.2). */
VminModel
makeSuitChip()
{
    static const suit::power::DvfsCurve curve =
        suit::power::i9_9900kCurve();
    VminConfig cfg;
    cfg.curve = &curve;
    cfg.cores = 4;
    cfg.hardenedImul = true;
    return VminModel(cfg);
}

TEST(AttackTest, ImulTargetAlsoNeutralised)
{
    // Plundervolt's original target: IMUL in an enclave.  With SUIT,
    // IMUL is hardened statically (4-cycle latency): its Vmin is far
    // lower (Fig. 13), so it runs natively on the efficient curve.
    AttackConfig cfg;
    cfg.target = FaultableKind::IMUL;
    cfg.undervoltMv = 115.0; // Murdoch et al.: IMUL faults at ~-100 mV
    cfg.attempts = 2000;

    const AttackResult base = attackBaseline(makeModel(), cfg);
    const AttackResult suit = attackWithSuit(makeSuitChip(), cfg);
    EXPECT_GT(base.faultyResults, 0u);
    EXPECT_EQ(suit.faultyResults, 0u);
}

TEST(AttackTest, HardenedImulRunsNativelyWhileAesTraps)
{
    // IMUL is not in SUIT's trap set: the campaign against it takes
    // no #DO, while every AESENC attempt still traps.
    const VminModel m = makeSuitChip();
    AttackConfig cfg;
    cfg.attempts = 2000;

    cfg.target = FaultableKind::IMUL;
    cfg.undervoltMv = 115.0;
    const AttackResult imul = attackWithSuit(m, cfg);
    EXPECT_EQ(imul.attempts, 2000u);
    EXPECT_EQ(imul.traps, 0u);
    EXPECT_EQ(imul.faultyResults, 0u);

    cfg.target = FaultableKind::AESENC;
    cfg.undervoltMv = 180.0;
    const AttackResult aes = attackWithSuit(m, cfg);
    EXPECT_EQ(aes.traps, aes.attempts);
    EXPECT_EQ(aes.faultyResults, 0u);
}

} // namespace
