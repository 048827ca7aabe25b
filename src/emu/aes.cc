#include "emu/aes.hh"

#include "util/logging.hh"

namespace suit::emu {

namespace {

/** The AES forward S-box (FIPS-197). */
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67,
    0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59,
    0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7,
    0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1,
    0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05,
    0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83,
    0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29,
    0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa,
    0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c,
    0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc,
    0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19,
    0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4,
    0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6,
    0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9,
    0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e,
    0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1,
    0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0,
    0x54, 0xbb, 0x16,
};

/** Constant-time GF(2^8) doubling (xtime). */
std::uint8_t
xtime(std::uint8_t b)
{
    return static_cast<std::uint8_t>(
        (b << 1) ^ (0x1B & static_cast<std::uint8_t>(
                               -static_cast<std::int8_t>(b >> 7))));
}

/** ShiftRows on the x86 column-major state layout. */
AesBlock
shiftRows(const AesBlock &s)
{
    AesBlock r;
    for (int col = 0; col < 4; ++col) {
        for (int row = 0; row < 4; ++row) {
            // Row `row` rotates left by `row` columns.
            const int src_col = (col + row) % 4;
            r[static_cast<std::size_t>(4 * col + row)] =
                s[static_cast<std::size_t>(4 * src_col + row)];
        }
    }
    return r;
}

/** MixColumns on the x86 column-major state layout. */
AesBlock
mixColumns(const AesBlock &s)
{
    AesBlock r;
    for (int col = 0; col < 4; ++col) {
        const std::uint8_t a0 = s[static_cast<std::size_t>(4 * col)];
        const std::uint8_t a1 = s[static_cast<std::size_t>(4 * col + 1)];
        const std::uint8_t a2 = s[static_cast<std::size_t>(4 * col + 2)];
        const std::uint8_t a3 = s[static_cast<std::size_t>(4 * col + 3)];
        r[static_cast<std::size_t>(4 * col)] = static_cast<std::uint8_t>(
            xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
        r[static_cast<std::size_t>(4 * col + 1)] =
            static_cast<std::uint8_t>(a0 ^ xtime(a1) ^
                                      (xtime(a2) ^ a2) ^ a3);
        r[static_cast<std::size_t>(4 * col + 2)] =
            static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^
                                      (xtime(a3) ^ a3));
        r[static_cast<std::size_t>(4 * col + 3)] =
            static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^
                                      xtime(a3));
    }
    return r;
}

AesBlock
addRoundKey(const AesBlock &s, const AesBlock &k)
{
    AesBlock r;
    for (std::size_t i = 0; i < 16; ++i)
        r[i] = s[i] ^ k[i];
    return r;
}

AesBlock
subBytes(const AesBlock &s)
{
    AesBlock r;
    for (std::size_t i = 0; i < 16; ++i)
        r[i] = kSbox[s[i]];
    return r;
}

/** Bit-sliced SubBytes: GF inversion + affine, no table lookups. */
AesBlock
subBytesBitsliced(const AesBlock &s)
{
    const AesPlanes x = aesToPlanes(s);
    const AesPlanes inv = gfInvPlanes(x);
    // Affine transform: s_i = x_i ^ x_(i+4) ^ x_(i+5) ^ x_(i+6)
    //                        ^ x_(i+7) ^ c_i, with c = 0x63.
    AesPlanes out;
    for (int i = 0; i < 8; ++i) {
        std::uint16_t p = inv[static_cast<std::size_t>(i)];
        p ^= inv[static_cast<std::size_t>((i + 4) % 8)];
        p ^= inv[static_cast<std::size_t>((i + 5) % 8)];
        p ^= inv[static_cast<std::size_t>((i + 6) % 8)];
        p ^= inv[static_cast<std::size_t>((i + 7) % 8)];
        if ((0x63 >> i) & 1)
            p ^= 0xFFFF;
        out[static_cast<std::size_t>(i)] = p;
    }
    return aesFromPlanes(out);
}

} // namespace

std::uint8_t
aesSubByte(std::uint8_t b)
{
    return kSbox[b];
}

AesBlock
aesencRound(const AesBlock &state, const AesBlock &round_key)
{
    return addRoundKey(mixColumns(subBytes(shiftRows(state))),
                       round_key);
}

AesBlock
aesenclastRound(const AesBlock &state, const AesBlock &round_key)
{
    return addRoundKey(subBytes(shiftRows(state)), round_key);
}

AesBlock
aesencRoundBitsliced(const AesBlock &state, const AesBlock &round_key)
{
    return addRoundKey(
        mixColumns(subBytesBitsliced(shiftRows(state))), round_key);
}

AesBlock
aesenclastRoundBitsliced(const AesBlock &state,
                         const AesBlock &round_key)
{
    return addRoundKey(subBytesBitsliced(shiftRows(state)), round_key);
}

Aes128::Aes128(const AesBlock &key)
{
    roundKeys_[0] = key;
    std::uint8_t rcon = 0x01;
    for (int r = 1; r <= 10; ++r) {
        const AesBlock &prev = roundKeys_[static_cast<std::size_t>(r - 1)];
        AesBlock &next = roundKeys_[static_cast<std::size_t>(r)];
        // Rotate, substitute and rcon the last word of the previous key.
        std::uint8_t t[4] = {
            static_cast<std::uint8_t>(kSbox[prev[13]] ^ rcon),
            kSbox[prev[14]], kSbox[prev[15]], kSbox[prev[12]]};
        for (int i = 0; i < 4; ++i)
            next[static_cast<std::size_t>(i)] =
                prev[static_cast<std::size_t>(i)] ^ t[i];
        for (int i = 4; i < 16; ++i)
            next[static_cast<std::size_t>(i)] =
                prev[static_cast<std::size_t>(i)] ^
                next[static_cast<std::size_t>(i - 4)];
        rcon = xtime(rcon);
    }
}

AesBlock
Aes128::encrypt(const AesBlock &plaintext) const
{
    AesBlock s = addRoundKey(plaintext, roundKeys_[0]);
    for (int r = 1; r < 10; ++r)
        s = aesencRound(s, roundKeys_[static_cast<std::size_t>(r)]);
    return aesenclastRound(s, roundKeys_[10]);
}

AesBlock
Aes128::encryptBitsliced(const AesBlock &plaintext) const
{
    AesBlock s = addRoundKey(plaintext, roundKeys_[0]);
    for (int r = 1; r < 10; ++r)
        s = aesencRoundBitsliced(
            s, roundKeys_[static_cast<std::size_t>(r)]);
    return aesenclastRoundBitsliced(s, roundKeys_[10]);
}

const AesBlock &
Aes128::roundKey(int i) const
{
    SUIT_ASSERT(i >= 0 && i <= 10, "round key %d out of range", i);
    return roundKeys_[static_cast<std::size_t>(i)];
}

AesPlanes
aesToPlanes(const AesBlock &block)
{
    AesPlanes planes{};
    for (int byte = 0; byte < 16; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            const std::uint16_t b =
                (block[static_cast<std::size_t>(byte)] >> bit) & 1;
            planes[static_cast<std::size_t>(bit)] |=
                static_cast<std::uint16_t>(b << byte);
        }
    }
    return planes;
}

AesBlock
aesFromPlanes(const AesPlanes &planes)
{
    AesBlock block{};
    for (int byte = 0; byte < 16; ++byte) {
        std::uint8_t v = 0;
        for (int bit = 0; bit < 8; ++bit) {
            v |= static_cast<std::uint8_t>(
                ((planes[static_cast<std::size_t>(bit)] >> byte) & 1)
                << bit);
        }
        block[static_cast<std::size_t>(byte)] = v;
    }
    return block;
}

AesPlanes
gfMulPlanes(const AesPlanes &a, const AesPlanes &b)
{
    // Schoolbook GF(2)[x] product of the two degree-7 polynomials,
    // coefficient-plane-wise, then reduction mod x^8+x^4+x^3+x+1.
    std::uint16_t t[15] = {};
    for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 8; ++j) {
            t[i + j] ^= static_cast<std::uint16_t>(
                a[static_cast<std::size_t>(i)] &
                b[static_cast<std::size_t>(j)]);
        }
    }
    for (int k = 14; k >= 8; --k) {
        t[k - 4] ^= t[k];
        t[k - 5] ^= t[k];
        t[k - 7] ^= t[k];
        t[k - 8] ^= t[k];
    }
    AesPlanes out;
    for (int i = 0; i < 8; ++i)
        out[static_cast<std::size_t>(i)] = t[i];
    return out;
}

AesPlanes
gfInvPlanes(const AesPlanes &a)
{
    // x^254 = x^-1 for x != 0 (and maps 0 to 0).  Addition chain:
    // x^2, x^3, x^12, x^15, x^240, x^252, x^254.
    const AesPlanes x2 = gfMulPlanes(a, a);
    const AesPlanes x3 = gfMulPlanes(x2, a);
    AesPlanes x12 = gfMulPlanes(x3, x3);
    x12 = gfMulPlanes(x12, x12);
    const AesPlanes x15 = gfMulPlanes(x12, x3);
    AesPlanes x240 = x15;
    for (int i = 0; i < 4; ++i)
        x240 = gfMulPlanes(x240, x240);
    const AesPlanes x252 = gfMulPlanes(x240, x12);
    return gfMulPlanes(x252, x2);
}

} // namespace suit::emu
