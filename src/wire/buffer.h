// Byte-oriented serialization primitives and the layout-driven codec.
//
// All integers are encoded little-endian at fixed width; variable-length
// fields (bytes, strings, vectors) carry a u32 length prefix. Reader uses a
// sticky failure flag instead of exceptions: any out-of-bounds or malformed
// read marks the reader bad and yields zero values, and the caller checks
// ok() once after decoding a whole message. This keeps decode paths branch-
// light and makes truncated/corrupt messages safe to feed in fuzz tests.
//
// A struct states its layout once (DESIGN.md §8), as a static member that
// ties its fields in wire order:
//
//   static auto Fields(auto& m) { return std::tie(m.group, m.from); }
//
// Writer::Put and Reader::Get walk that list, dispatching on field type:
//   bool, fixed-width integers    little-endian, fixed width
//   enums                         the underlying integer; Get rejects a value
//                                 above WireMax(E{}), declared beside E
//   std::string, vector<u8>       u32 length, then the bytes in one copy
//   std::vector<T>                u32 count, then the elements
//   std::optional<T>              bool, then the value when present
//   std::set<T>, std::map<K, V>   u32 count, then the elements (key, value)
//   any other struct              its own Fields, in order
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace vsr::wire {

// True when T is an instantiation of the class template C.
template <typename T, template <typename...> class C>
inline constexpr bool kIsA = false;
template <template <typename...> class C, typename... A>
inline constexpr bool kIsA<C<A...>, C> = true;

class Writer {
 public:
  Writer() = default;

  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v) { AppendLe(v); }
  void U32(std::uint32_t v) { AppendLe(v); }
  void U64(std::uint64_t v) { AppendLe(v); }
  void I64(std::int64_t v) { AppendLe(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void Bytes(std::span<const std::uint8_t> b) {
    U32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  // Unprefixed bytes — the caller has already written a length (e.g. the
  // frame header, or an event-log entry's length word).
  void Raw(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void String(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  // Encodes a vector via a per-element encoder: w.Vector(v, [&](const T& e){...});
  template <typename T, typename Fn>
  void Vector(const std::vector<T>& v, Fn&& encode_element) {
    U32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) encode_element(e);
  }

  // Encodes `v` by its type (see the table at the top of this file).
  template <typename T>
  void Put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      Bool(v);
    } else if constexpr (std::is_enum_v<T>) {
      Put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      AppendLe(static_cast<std::make_unsigned_t<T>>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      String(v);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      Bytes(v);
    } else if constexpr (kIsA<T, std::vector>) {
      Vector(v, [&](const auto& e) { Put(e); });
    } else if constexpr (kIsA<T, std::optional>) {
      Bool(v.has_value());
      if (v) Put(*v);
    } else if constexpr (kIsA<T, std::set> || kIsA<T, std::map>) {
      U32(static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) Put(e);
    } else if constexpr (kIsA<T, std::pair>) {
      Put(v.first);
      Put(v.second);
    } else {
      std::apply([&](const auto&... f) { (Put(f), ...); }, T::Fields(v));
    }
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8() { return ReadLe<std::uint8_t>(); }
  std::uint16_t U16() { return ReadLe<std::uint16_t>(); }
  std::uint32_t U32() { return ReadLe<std::uint32_t>(); }
  std::uint64_t U64() { return ReadLe<std::uint64_t>(); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double F64() {
    std::uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::vector<std::uint8_t> Bytes() {
    std::uint32_t n = U32();
    if (!CheckRemaining(n)) return {};
    std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                  data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::string String() {
    std::uint32_t n = U32();
    if (!CheckRemaining(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }
  // Unprefixed read matching Writer::Raw.
  std::vector<std::uint8_t> Raw(std::size_t n) {
    if (!CheckRemaining(n)) return {};
    std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                  data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return out;
  }

  // Decodes a vector via a per-element decoder returning T.
  template <typename T, typename Fn>
  std::vector<T> Vector(Fn&& decode_element) {
    const std::uint32_t n = Count();
    std::vector<T> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n && ok_; ++i) {
      out.push_back(decode_element());
    }
    return out;
  }

  // Decodes a T laid out as Writer::Put writes it.
  template <typename T>
  T Get() {
    T v{};
    Read(v);
    return v;
  }

  // Get in place: overwrites `v`, replacing any container contents.
  template <typename T>
  void Read(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = Bool();
    } else if constexpr (std::is_enum_v<T>) {
      using U = std::underlying_type_t<T>;
      const U raw = Get<U>();
      if (raw > static_cast<U>(WireMax(T{}))) MarkBad();
      v = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(ReadLe<std::make_unsigned_t<T>>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = String();
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      v = Bytes();
    } else if constexpr (kIsA<T, std::vector>) {
      using E = typename T::value_type;
      v = Vector<E>([&] { return Get<E>(); });
    } else if constexpr (kIsA<T, std::optional>) {
      v.reset();
      if (Bool()) v = Get<typename T::value_type>();
    } else if constexpr (kIsA<T, std::set>) {
      v.clear();
      const std::uint32_t n = Count();
      for (std::uint32_t i = 0; i < n && ok_; ++i) {
        v.insert(Get<typename T::value_type>());
      }
    } else if constexpr (kIsA<T, std::map>) {
      v.clear();
      const std::uint32_t n = Count();
      for (std::uint32_t i = 0; i < n && ok_; ++i) {
        typename T::key_type key = Get<typename T::key_type>();
        Read(v[std::move(key)]);
      }
    } else {
      std::apply([&](auto&... f) { (Read(f), ...); }, T::Fields(v));
    }
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t Remaining() const { return data_.size() - pos_; }

  // Marks the reader failed; used by message decoders on semantic errors
  // (unknown enum tag, etc.).
  void MarkBad() { ok_ = false; }

 private:
  // An element count. A corrupt count must not cause a huge reserve or a
  // long loop: each element is at least one byte, so cap by remaining input.
  std::uint32_t Count() {
    const std::uint32_t n = U32();
    if (!ok_ || n > Remaining() + 1) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  bool CheckRemaining(std::size_t n) {
    if (!ok_ || Remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  T ReadLe() {
    if (!CheckRemaining(sizeof(T))) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Encodes `v` (see Writer::Put) into a fresh buffer.
template <typename T>
std::vector<std::uint8_t> ToBytes(const T& v) {
  Writer w;
  w.Put(v);
  return w.Take();
}

// CRC-32 (IEEE 802.3 polynomial) used to checksum network frames.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

}  // namespace vsr::wire
