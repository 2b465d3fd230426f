// Typed field-stream serialization primitives for detector state snapshots.
//
// A SnapshotWriter appends tagged fields (u64 / i64 / f64 / bool / string /
// double-vector) to a byte buffer; a SnapshotReader consumes them in the same
// order, verifying each field's 1-byte type tag. Any mismatch — wrong tag,
// truncated buffer, oversized length — sets a STICKY error flag instead of
// throwing or aborting, so a corrupted snapshot is rejected gracefully by the
// caller checking ok() once at the end.
//
// Wire layout, per field: one tag byte, then
//   U64 / I64 / U32 / F64   the value as a little-endian u64 (U32 widened);
//   Bool                    one byte, 0 or 1;
//   Str                     u64 length, then the bytes;
//   VecF64                  u64 count, then each element as a u64.
//
// Determinism: doubles are serialized as their IEEE-754 bit pattern
// (little-endian u64), so a save/restore round trip is bit-exact — the
// foundation of the restart-without-rewarm guarantee pinned by
// tests/obs/snapshot_test. Framing (magic, version, checksum) is layered on
// top by obs/snapshot.h; this module is only the field stream, the
// little-endian word codec every durable format shares, and the one
// checksum (Checksum64) that seals snapshot envelopes and WAL frames.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sds {

// Little-endian word codec: loads and stores one unsigned integer at an
// unaligned byte address. A plain memcpy on little-endian hosts; the bytes
// are reversed only where the host is big-endian.
template <typename U>
U ToLittleEndian(U v) {
  static_assert(std::is_unsigned_v<U>);
  if constexpr (std::endian::native == std::endian::big) {
    U swapped = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      swapped = static_cast<U>((swapped << 8) | ((v >> (8 * i)) & 0xff));
    }
    return swapped;
  }
  return v;
}

template <typename U>
U LoadLe(const char* p) {
  U v;
  std::memcpy(&v, p, sizeof(U));
  return ToLittleEndian(v);
}

template <typename U>
void StoreLe(char* p, U v) {
  v = ToLittleEndian(v);
  std::memcpy(p, &v, sizeof(U));
}

class SnapshotWriter {
 public:
  SnapshotWriter() = default;
  // Appends after the bytes already in `buffer`; its capacity is reused, so
  // a caller that hands the same buffer back through TakeData() encodes
  // without allocating.
  explicit SnapshotWriter(std::string buffer) : data_(std::move(buffer)) {}

  void U64(std::uint64_t v);
  void I64(std::int64_t v);
  void U32(std::uint32_t v);
  void F64(double v);
  void Bool(bool v);
  void Str(std::string_view v);
  // One VecF64 field whose elements are `head` followed by `tail` — the two
  // contiguous runs of a ring buffer write without a gathering copy.
  void VecF64(std::span<const double> head, std::span<const double> tail = {});

  const std::string& data() const { return data_; }
  std::string TakeData() { return std::move(data_); }

 private:
  void Field(char tag, std::uint64_t v);
  void AppendF64s(std::span<const double> v);

  std::string data_;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  std::uint64_t U64();
  std::int64_t I64();
  std::uint32_t U32();
  double F64();
  bool Bool();
  std::string Str();
  std::vector<double> VecF64();

  // False once any read hit a tag mismatch or ran off the end. All reads
  // after an error return zero values; callers check once, at the end.
  bool ok() const { return ok_; }
  // True when every byte was consumed (trailing garbage is corruption).
  bool exhausted() const { return pos_ == data_.size(); }
  // Bytes consumed so far — lets an envelope reader locate the payload that
  // follows a header without re-deriving field widths.
  std::size_t consumed() const { return pos_; }

 private:
  // The tag check and the 8-byte word that follows it, or 0 with ok_ false.
  std::uint64_t Field(char expected_tag);
  bool Take(char expected_tag);
  std::uint64_t Raw64();

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// XXH64 with seed 0: the one checksum of the durable formats (snapshot
// envelopes, WAL frames) and of the configuration fingerprints that bind
// them. Any change to it changes every sealed byte, so it moves together
// with obs::kSnapshotVersion.
std::uint64_t Checksum64(std::string_view bytes);

}  // namespace sds
