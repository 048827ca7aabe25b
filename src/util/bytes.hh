/**
 * @file
 * Little-endian byte codec shared by the binary formats: result
 * blobs (sim/result_io), fleet accumulator blobs and the checkpoint
 * journal.
 *
 * Writers append fixed-width little-endian integers to a
 * std::string.  ByteReader reads them back with a bounds check on
 * every field: a short or hostile buffer latches !ok() and yields
 * zeros instead of reading past the end, so decoders check ok() once
 * per record rather than once per field.
 */

#ifndef SUIT_UTIL_BYTES_HH
#define SUIT_UTIL_BYTES_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace suit::util {

inline void
putU8(std::uint8_t v, std::string &out)
{
    out.push_back(static_cast<char>(v));
}

inline void
putU32(std::uint32_t v, std::string &out)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void
putU64(std::uint64_t v, std::string &out)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void
putF64(double v, std::string &out)
{
    putU64(std::bit_cast<std::uint64_t>(v), out);
}

/** u32 length prefix, then the bytes. */
inline void
putString(const std::string &s, std::string &out)
{
    putU32(static_cast<std::uint32_t>(s.size()), out);
    out.append(s);
}

/** Unchecked little-endian u32 at @p p (caller checked the bounds). */
inline std::uint32_t
getU32(const char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

/** Unchecked little-endian u64 at @p p (caller checked the bounds). */
inline std::uint64_t
getU64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

/** Bounds-checked little-endian reader over [data, data + size). */
class ByteReader
{
  public:
    ByteReader(const char *data, std::size_t size, std::size_t offset)
        : data_(data), size_(size), pos_(offset)
    {
    }

    /** False once any read ran past the end. */
    bool ok() const { return ok_; }
    std::size_t pos() const { return pos_; }
    /** Bytes left after pos() (0 once !ok()). */
    std::size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

    std::uint8_t u8()
    {
        return take(1) ? static_cast<std::uint8_t>(data_[pos_ - 1]) : 0;
    }

    std::uint32_t u32() { return take(4) ? getU32(data_ + pos_ - 4) : 0; }

    std::uint64_t u64() { return take(8) ? getU64(data_ + pos_ - 8) : 0; }

    double f64() { return std::bit_cast<double>(u64()); }

    /** A putString() field. */
    std::string str()
    {
        const std::uint32_t len = u32();
        if (!take(len))
            return {};
        return std::string(data_ + pos_ - len, len);
    }

  private:
    bool take(std::size_t n)
    {
        if (!ok_ || n > size_ - pos_) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    const char *data_;
    std::size_t size_;
    std::size_t pos_;
    bool ok_ = true;
};

} // namespace suit::util

#endif // SUIT_UTIL_BYTES_HH
