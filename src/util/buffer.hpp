// Byte buffer with little-endian primitive serialization.
//
// All protocol wire formats (determinant piggybacks, Event Logger records,
// checkpoint images) are serialized through this type so that the simulator
// counts real bytes, not estimates.
//
// Primitives are written by memcpy of the host representation; the
// static_assert below pins the build to little-endian hosts so that the
// wire format actually is little-endian (byte-swap shims would go here if
// a big-endian port ever materializes).
//
// Reading is one implementation (`ByteReader`) shared by the two surfaces:
// `Buffer` (owning) and `BufferView` (non-owning). Parsing a sub-range — a
// piggyback inside a frame, the app blob inside a checkpoint image —
// through a view reads the parent's bytes in place instead of copying them
// out.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace mpiv::util {

static_assert(std::endian::native == std::endian::little,
              "wire formats memcpy host-order primitives and are only "
              "little-endian on little-endian hosts");

class BufferView;

/// Sequential cursor reads over Derived's `read_data()`/`read_size()`
/// byte range — the single copy of the bounds-checked take/decode logic.
template <class Derived>
class ByteReader {
 public:
  std::size_t cursor() const { return cursor_; }
  std::size_t remaining() const { return size() - cursor_; }
  void rewind() { cursor_ = 0; }
  void skip(std::size_t n) { take(n); }

  std::uint8_t get_u8() { return data()[take(1)]; }
  std::uint16_t get_u16() { return get_raw<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_raw<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_raw<std::uint64_t>(); }
  std::int64_t get_i64() { return get_raw<std::int64_t>(); }
  double get_f64() { return get_raw<double>(); }
  std::string get_string() {
    const std::uint32_t n = get_u32();
    const std::size_t at = take(n);
    return std::string(reinterpret_cast<const char*>(data() + at), n);
  }
  /// Reads a length-prefixed sub-range (put_bytes format) as a non-owning
  /// view — the parse reads this reader's bytes in place, no copy.
  inline BufferView get_view();

 protected:
  std::size_t take(std::size_t n) {
    MPIV_CHECK(cursor_ + n <= size(), "read underrun: need %zu at %zu of %zu",
               n, cursor_, size());
    const std::size_t at = cursor_;
    cursor_ += n;
    return at;
  }

  std::size_t cursor_ = 0;

 private:
  const std::uint8_t* data() const {
    return static_cast<const Derived*>(this)->read_data();
  }
  std::size_t size() const {
    return static_cast<const Derived*>(this)->read_size();
  }
  template <class T>
  T get_raw() {
    T v;
    const std::size_t at = take(sizeof(T));
    std::memcpy(&v, data() + at, sizeof(T));
    return v;
  }
};

/// Non-owning reader over a byte range; the bytes must outlive the view.
class BufferView : public ByteReader<BufferView> {
 public:
  BufferView() = default;
  BufferView(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* data() const { return data_; }

  const std::uint8_t* read_data() const { return data_; }
  std::size_t read_size() const { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

class Buffer : public ByteReader<Buffer> {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}

  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  void clear() {
    bytes_.clear();
    cursor_ = 0;
  }
  void reserve(std::size_t n) { bytes_.reserve(n); }

  const std::uint8_t* read_data() const { return bytes_.data(); }
  std::size_t read_size() const { return bytes_.size(); }

  /// Non-owning view of the whole buffer (or a sub-range) with its own
  /// cursor; valid until this buffer is mutated or destroyed.
  BufferView view() const { return BufferView(bytes_.data(), bytes_.size()); }
  BufferView view(std::size_t offset, std::size_t len) const {
    MPIV_CHECK(offset + len <= bytes_.size(), "view out of range: %zu+%zu of %zu",
               offset, len, bytes_.size());
    return BufferView(bytes_.data() + offset, len);
  }

  // --- Writing ---------------------------------------------------------
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u16(std::uint16_t v) { put_packed(v); }
  void put_u32(std::uint32_t v) { put_packed(v); }
  void put_u64(std::uint64_t v) { put_packed(v); }
  void put_i64(std::int64_t v) { put_packed(v); }
  void put_f64(double v) { put_packed(v); }
  /// Appends each argument's bytes back to back in one growth step: the
  /// same bytes as the matching put_* calls in sequence, for hot loops that
  /// write fixed-size records.
  template <class... Ts>
  void put_packed(Ts... vs) {
    static_assert((std::is_arithmetic_v<Ts> && ...), "scalar fields only");
    constexpr std::size_t n = (sizeof(Ts) + ...);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    std::uint8_t* p = bytes_.data() + at;
    ((std::memcpy(p, &vs, sizeof(Ts)), p += sizeof(Ts)), ...);
  }
  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }
  void put_bytes(const Buffer& other) {
    put_u32(static_cast<std::uint32_t>(other.size()));
    put_raw(other.bytes_.data(), other.size());
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.bytes_ == b.bytes_;
  }

 private:
  void put_raw(const void* p, std::size_t n) {
    // resize + memcpy instead of insert: avoids a GCC 12 -Wstringop-overflow
    // false positive on scalar sources and skips the iterator dispatch.
    if (n == 0) return;  // p may be null (e.g. put_bytes of an empty Buffer)
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    std::memcpy(bytes_.data() + at, p, n);
  }

  std::vector<std::uint8_t> bytes_;
};

template <class Derived>
inline BufferView ByteReader<Derived>::get_view() {
  const std::uint32_t n = get_u32();
  const std::size_t at = take(n);
  return BufferView(data() + at, n);
}

}  // namespace mpiv::util
