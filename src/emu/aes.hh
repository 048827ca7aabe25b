/**
 * @file
 * AES round primitives: reference (table-based) and bit-sliced.
 *
 * SUIT emulates a trapped AESENC "with a side-channel-resilient
 * bit-sliced AES implementation" (paper Sec. 3.4).  This header
 * provides both the table-based reference semantics (the golden
 * model, validated against FIPS-197) and the constant-time
 * bit-sliced implementation the OS actually dispatches: the S-box is
 * computed as GF(2^8) inversion + affine transform on bit planes,
 * with no data-dependent memory access anywhere.
 */

#ifndef SUIT_EMU_AES_HH
#define SUIT_EMU_AES_HH

#include <array>
#include <cstdint>

namespace suit::emu {

/** One 128-bit AES state / round key, byte 0 first (x86 layout). */
using AesBlock = std::array<std::uint8_t, 16>;

/** @{ Reference (table-based) primitives. */

/** The AES S-box applied to one byte. */
std::uint8_t aesSubByte(std::uint8_t b);

/**
 * One AESENC round exactly as the x86 instruction defines it:
 * ShiftRows, SubBytes, MixColumns, AddRoundKey.
 */
AesBlock aesencRound(const AesBlock &state, const AesBlock &round_key);

/**
 * One AESENCLAST round: ShiftRows, SubBytes, AddRoundKey (no
 * MixColumns).
 */
AesBlock aesenclastRound(const AesBlock &state,
                         const AesBlock &round_key);

/** @} */

/** @{ Bit-sliced (constant-time) primitives with identical results. */

/** AESENC round computed without any table lookups. */
AesBlock aesencRoundBitsliced(const AesBlock &state,
                              const AesBlock &round_key);

/** AESENCLAST round computed without any table lookups. */
AesBlock aesenclastRoundBitsliced(const AesBlock &state,
                                  const AesBlock &round_key);

/** @} */

/**
 * AES-128 built from the round primitives, used to validate the
 * emulation against the FIPS-197 vectors and by the secure-service
 * example.
 */
class Aes128
{
  public:
    /** Expand a 16-byte key into the 11 round keys. */
    explicit Aes128(const AesBlock &key);

    /** Encrypt one block with the reference rounds. */
    AesBlock encrypt(const AesBlock &plaintext) const;

    /** Encrypt one block with the bit-sliced rounds. */
    AesBlock encryptBitsliced(const AesBlock &plaintext) const;

    /** Round key @p i (0..10). */
    const AesBlock &roundKey(int i) const;

  private:
    std::array<AesBlock, 11> roundKeys_{};
};

/** @{ Bit-plane helpers, exposed for the property tests. */

/** 8 bit planes over the 16 state bytes (plane b bit j = state
 *  byte j bit b). */
using AesPlanes = std::array<std::uint16_t, 8>;

/** Transpose a block into bit planes. */
AesPlanes aesToPlanes(const AesBlock &block);

/** Transpose bit planes back into a block. */
AesBlock aesFromPlanes(const AesPlanes &planes);

/** GF(2^8) multiply (AES polynomial 0x11B) on bit planes. */
AesPlanes gfMulPlanes(const AesPlanes &a, const AesPlanes &b);

/** GF(2^8) inversion (x^254; 0 maps to 0) on bit planes. */
AesPlanes gfInvPlanes(const AesPlanes &a);

/** @} */

} // namespace suit::emu

#endif // SUIT_EMU_AES_HH
