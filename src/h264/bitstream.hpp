// Bit-level I/O with Exp-Golomb coding — the syntax layer every H.264
// header and our CAVLC-style residual coder is written in.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace affectsys::h264 {

/// Thrown when a decoder runs off the end of a (possibly truncated or
/// Input-Selector-edited) bitstream.
class BitstreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// MSB-first bit writer.
class BitWriter {
 public:
  void put_bit(bool b);
  void put_bits(std::uint32_t value, unsigned count);  ///< count <= 32
  /// Unsigned Exp-Golomb.
  void put_ue(std::uint32_t value);
  /// Signed Exp-Golomb (0, 1, -1, 2, -2, ...).
  void put_se(std::int32_t value);
  /// rbsp_trailing_bits: a 1 bit then zero-pad to a byte boundary.
  void finish_rbsp();

  std::size_t bit_count() const { return bytes_.size() * 8 - spare_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
  unsigned spare_ = 0;  ///< unused low bits in the last byte
};

/// MSB-first bit reader over an RBSP payload.  Reads are served from a
/// 64-bit cache refilled a byte at a time; a read that runs off the end
/// consumes every remaining bit and throws BitstreamError, exactly as a
/// bit-at-a-time reader would, so bits_consumed() is the same after a
/// success or a failure.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool get_bit() { return get_bits(1) != 0; }
  std::uint32_t get_bits(unsigned count);  ///< count <= 32
  std::uint32_t get_ue();
  std::int32_t get_se();

  std::size_t bits_consumed() const { return next_byte_ * 8 - cached_; }
  std::size_t bits_remaining() const {
    return data_.size() * 8 - bits_consumed();
  }
  bool byte_aligned() const { return bits_consumed() % 8 == 0; }

 private:
  /// Tops the cache up to at least 57 bits, or to the end of the data.
  void refill();
  /// Consumes every remaining bit and throws the read-past-end error.
  [[noreturn]] void fail_past_end();

  std::span<const std::uint8_t> data_;
  std::size_t next_byte_ = 0;  ///< first byte not yet in the cache
  std::uint64_t cache_ = 0;    ///< unread bits, MSB-aligned; rest zero
  unsigned cached_ = 0;        ///< valid bits in cache_
};

/// Inserts emulation-prevention bytes (0x03 after 0x0000 when the next
/// byte is <= 0x03, plus a trailing 0x03 when the RBSP ends in 0x0000),
/// producing a NAL payload safe to embed in Annex-B: the output never
/// contains 00 00 0{0,1} and never ends in 00 00.
std::vector<std::uint8_t> add_emulation_prevention(
    std::span<const std::uint8_t> rbsp);

/// Strips emulation-prevention bytes (including a trailing guard byte).
/// remove(add(rbsp)) == rbsp for every input.
std::vector<std::uint8_t> remove_emulation_prevention(
    std::span<const std::uint8_t> ebsp);

/// De-escapes into a caller-owned buffer (cleared first, capacity kept),
/// so steady-state decode reuses one RBSP staging vector instead of
/// allocating per NAL.  Byte-identical to remove_emulation_prevention.
void remove_emulation_prevention_into(std::span<const std::uint8_t> ebsp,
                                      std::vector<std::uint8_t>& out);

}  // namespace affectsys::h264
