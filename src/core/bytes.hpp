// Byte-buffer primitives used by every wire-format codec in the library.
//
// All multi-byte integers on the simulated wire are big-endian (network
// order), matching real IPv4/TCP/TLS encodings. `ByteWriter` appends to a
// growable buffer; `ByteReader` is a bounds-checked cursor over a byte span.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cen {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Thrown by ByteReader on any out-of-bounds read. Wire parsers catch this
/// at their boundary and report a malformed-message condition instead.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only big-endian encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopt an existing buffer to reuse its capacity: the buffer is moved
  /// in and cleared. Pair with `std::move(w).take()` to hand it back —
  /// the serialize-into-scratch pattern the hot paths use to avoid
  /// per-call allocations.
  explicit ByteWriter(Bytes&& reuse) : buf_(std::move(reuse)) { buf_.clear(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u24(std::uint32_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(BytesView data);
  void raw(std::string_view data);
  /// Overwrite a previously written big-endian u16 at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t v);

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Bounds-checked big-endian decoder over a non-owning view.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u24();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes raw(std::size_t n);
  std::string str(std::size_t n);
  void skip(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == data_.size(); }
  BytesView rest() const { return data_.subspan(pos_); }
  /// The full underlying span, independent of the cursor. Formats with
  /// absolute intra-message offsets (DNS compression pointers) re-read
  /// earlier bytes through this.
  BytesView buffer() const { return data_; }

 private:
  void require(std::size_t n) const;
  BytesView data_;
  std::size_t pos_ = 0;
};

/// Lowercase hex dump of `data`, no separators ("dead0a1b...").
std::string to_hex(BytesView data);
/// Inverse of to_hex; throws ParseError on odd length or non-hex chars.
Bytes from_hex(std::string_view hex);
/// Copy a string's bytes into a Bytes vector.
Bytes to_bytes(std::string_view s);
/// Interpret bytes as a string (no validation).
std::string to_string(BytesView data);
/// The same bytes viewed as characters, without a copy.
inline std::string_view as_text(BytesView data) {
  return {reinterpret_cast<const char*>(data.data()), data.size()};
}

}  // namespace cen
