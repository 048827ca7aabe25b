/**
 * @file
 * Tests of the deterministic RNG and its distributions.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "util/rng.hh"
#include "util/stats.hh"

namespace {

using suit::util::Rng;
using suit::util::RunningStats;

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(5);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(8);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(9);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.nextExponential(4.0));
    EXPECT_NEAR(s.mean(), 4.0, 0.15);
    EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(10);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.nextGaussian(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, LogNormalMean)
{
    // E[lognormal(mu, sigma)] = exp(mu + sigma^2 / 2).
    Rng rng(11);
    RunningStats s;
    const double mu = 1.0, sigma = 0.5;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.nextLogNormal(mu, sigma));
    EXPECT_NEAR(s.mean(), std::exp(mu + sigma * sigma / 2), 0.05);
}

} // namespace
