#include "common/snapshot.h"

namespace sds {
namespace {

// One tag byte per field so a reader that drifts out of sync (truncation,
// flipped bytes, version skew the envelope missed) fails at the next field
// instead of silently reinterpreting garbage.
constexpr char kTagU64 = 'U';
constexpr char kTagI64 = 'I';
constexpr char kTagU32 = 'u';
constexpr char kTagF64 = 'F';
constexpr char kTagBool = 'B';
constexpr char kTagStr = 'S';
constexpr char kTagVecF64 = 'V';

// Snapshots must not balloon on corrupt length prefixes.
constexpr std::uint64_t kMaxLength = 1ull << 28;

}  // namespace

void SnapshotWriter::Field(char tag, std::uint64_t v) {
  char bytes[9];
  bytes[0] = tag;
  StoreLe(bytes + 1, v);
  data_.append(bytes, sizeof(bytes));
}

void SnapshotWriter::U64(std::uint64_t v) { Field(kTagU64, v); }

void SnapshotWriter::I64(std::int64_t v) {
  Field(kTagI64, static_cast<std::uint64_t>(v));
}

void SnapshotWriter::U32(std::uint32_t v) { Field(kTagU32, v); }

void SnapshotWriter::F64(double v) {
  Field(kTagF64, std::bit_cast<std::uint64_t>(v));
}

void SnapshotWriter::Bool(bool v) {
  const char bytes[2] = {kTagBool, v ? '\1' : '\0'};
  data_.append(bytes, sizeof(bytes));
}

void SnapshotWriter::Str(std::string_view v) {
  Field(kTagStr, v.size());
  data_.append(v.data(), v.size());
}

void SnapshotWriter::VecF64(std::span<const double> head,
                            std::span<const double> tail) {
  Field(kTagVecF64, head.size() + tail.size());
  AppendF64s(head);
  AppendF64s(tail);
}

void SnapshotWriter::AppendF64s(std::span<const double> v) {
  if constexpr (std::endian::native == std::endian::little) {
    data_.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
  } else {
    const std::size_t at = data_.size();
    data_.resize(at + v.size_bytes());
    for (std::size_t i = 0; i < v.size(); ++i) {
      StoreLe(data_.data() + at + 8 * i, std::bit_cast<std::uint64_t>(v[i]));
    }
  }
}

bool SnapshotReader::Take(char expected_tag) {
  if (!ok_ || pos_ >= data_.size() || data_[pos_] != expected_tag) {
    ok_ = false;
    return false;
  }
  ++pos_;
  return true;
}

std::uint64_t SnapshotReader::Raw64() {
  if (!ok_ || data_.size() - pos_ < 8) {
    ok_ = false;
    return 0;
  }
  const std::uint64_t v = LoadLe<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::uint64_t SnapshotReader::Field(char expected_tag) {
  if (!Take(expected_tag)) return 0;
  return Raw64();
}

std::uint64_t SnapshotReader::U64() { return Field(kTagU64); }

std::int64_t SnapshotReader::I64() {
  return static_cast<std::int64_t>(Field(kTagI64));
}

std::uint32_t SnapshotReader::U32() {
  const std::uint64_t v = Field(kTagU32);
  if (v > 0xffffffffull) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::uint32_t>(v);
}

double SnapshotReader::F64() {
  return std::bit_cast<double>(Field(kTagF64));
}

bool SnapshotReader::Bool() {
  if (!Take(kTagBool)) return false;
  if (pos_ >= data_.size()) {
    ok_ = false;
    return false;
  }
  const char c = data_[pos_++];
  if (c != '\0' && c != '\1') {
    ok_ = false;
    return false;
  }
  return c == '\1';
}

std::string SnapshotReader::Str() {
  const std::uint64_t n = Field(kTagStr);
  if (!ok_ || n > kMaxLength || n > data_.size() - pos_) {
    ok_ = false;
    return "";
  }
  std::string out(data_.substr(pos_, n));
  pos_ += n;
  return out;
}

std::vector<double> SnapshotReader::VecF64() {
  const std::uint64_t n = Field(kTagVecF64);
  if (!ok_ || n > kMaxLength / 8 || 8 * n > data_.size() - pos_) {
    ok_ = false;
    return {};
  }
  std::vector<double> out(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n != 0) std::memcpy(out.data(), data_.data() + pos_, 8 * n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::bit_cast<double>(
          LoadLe<std::uint64_t>(data_.data() + pos_ + 8 * i));
    }
  }
  pos_ += 8 * n;
  return out;
}

namespace {

// XXH64 primes and round functions, from the xxHash specification.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

std::uint64_t Round(std::uint64_t acc, std::uint64_t lane) {
  acc += lane * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

std::uint64_t MergeRound(std::uint64_t acc, std::uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t Checksum64(std::string_view bytes) {
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  std::uint64_t h;
  if (bytes.size() >= 32) {
    // Four independent lanes over 32-byte stripes.
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    const char* const last_stripe = end - 32;
    do {
      v1 = Round(v1, LoadLe<std::uint64_t>(p));
      v2 = Round(v2, LoadLe<std::uint64_t>(p + 8));
      v3 = Round(v3, LoadLe<std::uint64_t>(p + 16));
      v4 = Round(v4, LoadLe<std::uint64_t>(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = kPrime5;
  }
  h += bytes.size();
  // The tail: 8-byte words, then at most one 4-byte word, then bytes.
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, LoadLe<std::uint64_t>(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= std::uint64_t{LoadLe<std::uint32_t>(p)} * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= std::uint64_t{static_cast<unsigned char>(*p)} * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  // Final avalanche.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace sds
