// The one text writer behind every observer export (the Chrome-trace JSON,
// the metrics JSON and CSV): an append-only byte buffer with literals,
// integers, fixed-width hex and escaped strings.
//
// Appends are inline: each claims room with one capacity check and writes in
// place, so a record costs no temporary strings, no format-string parsing and
// no per-piece library call.  No field has a length cap: a label of any
// length is carried through whole.  Integers go through std::to_chars, so the
// bytes are exactly what printf's %u / %d / %llu would write.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>

namespace syncpat::obs {

class JsonOut {
 public:
  JsonOut() = default;
  JsonOut(JsonOut&& other) noexcept
      : data_(std::move(other.data_)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  JsonOut& operator=(JsonOut&& other) noexcept {
    data_ = std::move(other.data_);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    return *this;
  }

  /// Makes room for `capacity` bytes in total, so appends up to that size
  /// never move the buffer.
  void reserve(std::size_t capacity) {
    if (capacity > capacity_) reallocate(capacity);
  }

  /// Everything written so far.
  [[nodiscard]] std::string_view view() const { return {data_.get(), size_}; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Verbatim text: punctuation, keys and fixed names.
  JsonOut& lit(std::string_view s) {
    if (!s.empty()) std::memcpy(claim(s.size()), s.data(), s.size());
    return *this;
  }

  /// One character.
  JsonOut& ch(char c) {
    *claim(1) = c;
    return *this;
  }

  /// A decimal integer of any width or signedness.
  template <typename Int>
  JsonOut& num(Int v) {
    static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool> &&
                  !std::is_same_v<Int, char>);
    constexpr std::size_t kMaxChars = std::numeric_limits<Int>::digits10 + 2;
    char* const first = claim(kMaxChars);
    const std::to_chars_result r = std::to_chars(first, first + kMaxChars, v);
    size_ = static_cast<std::size_t>(r.ptr - data_.get());  // return the rest
    return *this;
  }

  /// "0x" and exactly eight lower-case hex digits (printf's "0x%08x").
  JsonOut& hex32(std::uint32_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    char* const p = claim(10);
    p[0] = '0';
    p[1] = 'x';
    for (int i = 9; i >= 2; --i, v >>= 4) p[i] = kDigits[v & 0xf];
    return *this;
  }

 private:
  /// Extends the buffer by `n` bytes and returns where they start.
  char* claim(std::size_t n) {
    if (capacity_ - size_ < n) grow(n);
    char* const p = data_.get() + size_;
    size_ += n;
    return p;
  }

  void grow(std::size_t n) {
    std::size_t capacity = capacity_ < 256 ? 256 : capacity_ * 2;
    while (capacity - size_ < n) capacity *= 2;
    reallocate(capacity);
  }

  void reallocate(std::size_t capacity) {
    auto bigger = std::make_unique_for_overwrite<char[]>(capacity);
    if (size_ > 0) std::memcpy(bigger.get(), data_.get(), size_);
    data_ = std::move(bigger);
    capacity_ = capacity;
  }

  std::unique_ptr<char[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Appends `s` as JSON string contents (the caller writes the quotes): `"`
/// and `\` are backslash-escaped and control characters are dropped.
inline void json_escape(JsonOut& out, std::string_view s) {
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) continue;
    if (c == '"' || c == '\\') out.ch('\\');
    out.ch(c);
  }
}

}  // namespace syncpat::obs
