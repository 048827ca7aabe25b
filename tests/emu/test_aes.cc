/**
 * @file
 * AES emulation tests: FIPS-197 conformance, reference vs bit-sliced
 * equivalence, and GF(2^8) plane-arithmetic properties.
 */

#include <gtest/gtest.h>

#include "emu/aes.hh"
#include "util/rng.hh"

namespace {

using suit::emu::Aes128;
using suit::emu::AesBlock;
using suit::emu::AesPlanes;
using suit::emu::aesencRound;
using suit::emu::aesencRoundBitsliced;
using suit::emu::aesenclastRound;
using suit::emu::aesenclastRoundBitsliced;
using suit::emu::aesFromPlanes;
using suit::emu::aesSubByte;
using suit::emu::aesToPlanes;
using suit::emu::gfInvPlanes;
using suit::emu::gfMulPlanes;
using suit::util::Rng;

AesBlock
blockFromHex(const char *hex)
{
    AesBlock b{};
    for (int i = 0; i < 16; ++i) {
        auto nibble = [&](char c) -> std::uint8_t {
            if (c >= '0' && c <= '9')
                return static_cast<std::uint8_t>(c - '0');
            return static_cast<std::uint8_t>(c - 'a' + 10);
        };
        b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
            (nibble(hex[2 * i]) << 4) | nibble(hex[2 * i + 1]));
    }
    return b;
}

AesBlock
randomBlock(Rng &rng)
{
    AesBlock b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.nextBelow(256));
    return b;
}

TEST(AesSbox, KnownValues)
{
    // Corner entries of the FIPS-197 S-box table.
    EXPECT_EQ(aesSubByte(0x00), 0x63);
    EXPECT_EQ(aesSubByte(0x01), 0x7c);
    EXPECT_EQ(aesSubByte(0x53), 0xed);
    EXPECT_EQ(aesSubByte(0xff), 0x16);
}

TEST(AesSbox, IsAPermutation)
{
    bool seen[256] = {};
    for (int i = 0; i < 256; ++i) {
        const std::uint8_t s =
            aesSubByte(static_cast<std::uint8_t>(i));
        EXPECT_FALSE(seen[s]) << "duplicate S-box output " << int(s);
        seen[s] = true;
    }
}

TEST(Aes128, Fips197AppendixCVector)
{
    const Aes128 aes(
        blockFromHex("000102030405060708090a0b0c0d0e0f"));
    const AesBlock pt =
        blockFromHex("00112233445566778899aabbccddeeff");
    const AesBlock expected =
        blockFromHex("69c4e0d86a7b0430d8cdb78070b4c55a");
    EXPECT_EQ(aes.encrypt(pt), expected);
}

TEST(Aes128, Fips197AppendixBVector)
{
    const Aes128 aes(blockFromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    const AesBlock pt =
        blockFromHex("3243f6a8885a308d313198a2e0370734");
    const AesBlock expected =
        blockFromHex("3925841d02dc09fbdc118597196a0b32");
    EXPECT_EQ(aes.encrypt(pt), expected);
}

TEST(Aes128, KeyScheduleMatchesFips197)
{
    // FIPS-197 Appendix A.1 expanded key, first and last round keys.
    const Aes128 aes(blockFromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    EXPECT_EQ(aes.roundKey(1),
              blockFromHex("a0fafe1788542cb123a339392a6c7605"));
    EXPECT_EQ(aes.roundKey(10),
              blockFromHex("d014f9a8c9ee2589e13f0cc8b6630ca6"));
}

TEST(Aes128, BitslicedEncryptMatchesReference)
{
    Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        const AesBlock key = randomBlock(rng);
        const AesBlock pt = randomBlock(rng);
        const Aes128 aes(key);
        EXPECT_EQ(aes.encryptBitsliced(pt), aes.encrypt(pt));
    }
}

TEST(AesRound, BitslicedRoundMatchesReference)
{
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const AesBlock state = randomBlock(rng);
        const AesBlock key = randomBlock(rng);
        EXPECT_EQ(aesencRoundBitsliced(state, key),
                  aesencRound(state, key));
        EXPECT_EQ(aesenclastRoundBitsliced(state, key),
                  aesenclastRound(state, key));
    }
}

TEST(AesPlanesTest, TransposeRoundTrips)
{
    Rng rng(3);
    for (int trial = 0; trial < 100; ++trial) {
        const AesBlock b = randomBlock(rng);
        EXPECT_EQ(aesFromPlanes(aesToPlanes(b)), b);
    }
}

TEST(AesPlanesTest, GfMulMatchesScalarReference)
{
    // Scalar GF(2^8) multiply with the AES polynomial.
    auto gf_mul = [](std::uint8_t a, std::uint8_t b) {
        std::uint8_t p = 0;
        for (int i = 0; i < 8; ++i) {
            if (b & 1)
                p ^= a;
            const bool hi = a & 0x80;
            a = static_cast<std::uint8_t>(a << 1);
            if (hi)
                a ^= 0x1B;
            b >>= 1;
        }
        return p;
    };

    Rng rng(11);
    for (int trial = 0; trial < 100; ++trial) {
        AesBlock a, b;
        for (int i = 0; i < 16; ++i) {
            a[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(rng.nextBelow(256));
            b[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(rng.nextBelow(256));
        }
        const AesBlock prod =
            aesFromPlanes(gfMulPlanes(aesToPlanes(a), aesToPlanes(b)));
        for (int i = 0; i < 16; ++i) {
            EXPECT_EQ(prod[static_cast<std::size_t>(i)],
                      gf_mul(a[static_cast<std::size_t>(i)],
                             b[static_cast<std::size_t>(i)]));
        }
    }
}

TEST(AesPlanesTest, GfInvIsInverse)
{
    // inv(x) * x == 1 for all 255 nonzero bytes; inv(0) == 0.
    for (int base = 0; base < 256; base += 16) {
        AesBlock b;
        for (int i = 0; i < 16; ++i)
            b[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(base + i);
        const AesPlanes planes = aesToPlanes(b);
        const AesBlock prod = aesFromPlanes(
            gfMulPlanes(gfInvPlanes(planes), planes));
        for (int i = 0; i < 16; ++i) {
            const std::uint8_t x = b[static_cast<std::size_t>(i)];
            EXPECT_EQ(prod[static_cast<std::size_t>(i)],
                      x == 0 ? 0 : 1)
                << "byte value " << int(x);
        }
    }
}

} // namespace
