#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hpcqc/common/error.hpp"

namespace hpcqc::store {

/// Little-endian byte packer for WAL record bodies and snapshots. Manual
/// byte-at-a-time packing keeps the wire format independent of host
/// endianness and struct layout — a journal written on one machine replays
/// bit-identically on any other.
class ByteWriter {
public:
  ByteWriter() = default;
  /// Starts with room for `capacity` bytes.
  explicit ByteWriter(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { little_endian<4>(v); }
  void u64(std::uint64_t v) { little_endian<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Raw bytes, no length prefix.
  void bytes(const std::uint8_t* data, std::size_t size) {
    buf_.insert(buf_.end(), data, data + size);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
  template <int N>
  void little_endian(std::uint64_t v) {
    std::uint8_t b[N];
    for (int i = 0; i < N; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    buf_.insert(buf_.end(), b, b + N);
  }

  std::vector<std::uint8_t> buf_;
};

/// Matching unpacker; throws ParseError on truncation so a corrupt payload
/// surfaces as a decode failure, never as garbage state.
class ByteReader {
public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(std::span<const std::uint8_t> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n)
      throw ParseError("store: truncated record (need " + std::to_string(n) +
                       " bytes, have " + std::to_string(size_ - pos_) + ")");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace hpcqc::store
