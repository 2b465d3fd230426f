#include "svc/wal.h"

#include "common/snapshot.h"
#include "obs/snapshot.h"

namespace sds::svc {

namespace {

// Frame header: u32 payload_len | u64 Checksum64(payload), little-endian.
constexpr std::size_t kFrameHeaderBytes = 4 + 8;

}  // namespace

const char* WalScanStopName(WalScanStop stop) {
  switch (stop) {
    case WalScanStop::kCleanEnd:
      return "clean_end";
    case WalScanStop::kTornFrame:
      return "torn_frame";
    case WalScanStop::kBadChecksum:
      return "bad_checksum";
    case WalScanStop::kBadVersion:
      return "bad_version";
    case WalScanStop::kBadRecord:
      return "bad_record";
  }
  return "?";
}

void WalWriter::AppendFrame(const WalRecord& record, std::string* log) {
  const std::size_t at = log->size();
  // The header is filled in once the payload behind it is complete.
  log->append(kFrameHeaderBytes, '\0');
  SnapshotWriter payload(std::move(*log));
  payload.U32(kWalPayloadVersion);  // det-wal-versioned pin
  payload.U32(static_cast<std::uint32_t>(record.kind));
  payload.U64(record.lsn);
  switch (record.kind) {
    case WalRecordKind::kEvent:
      payload.U64(record.sample.offset);
      payload.U32(record.sample.tenant);
      payload.I64(record.sample.tick);
      payload.U64(record.sample.access_num);
      payload.U64(record.sample.miss_num);
      payload.U32(record.disposition);
      break;
    case WalRecordKind::kTick:
      payload.I64(record.tick);
      break;
  }
  *log = payload.TakeData();
  const std::string_view body =
      std::string_view(*log).substr(at + kFrameHeaderBytes);
  StoreLe(log->data() + at, static_cast<std::uint32_t>(body.size()));
  StoreLe(log->data() + at + 4, Checksum64(body));
}

std::string WalWriter::EncodeFrame(const WalRecord& record) {
  std::string frame;
  AppendFrame(record, &frame);
  return frame;
}

WalScanResult WalReader::Scan(std::string_view bytes) {
  WalScanResult result;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeaderBytes) {
      result.stop = WalScanStop::kTornFrame;
      break;
    }
    const auto len = LoadLe<std::uint32_t>(bytes.data() + pos);
    const auto checksum = LoadLe<std::uint64_t>(bytes.data() + pos + 4);
    if (bytes.size() - pos - kFrameHeaderBytes < len) {
      result.stop = WalScanStop::kTornFrame;
      break;
    }
    const std::string_view body =
        bytes.substr(pos + kFrameHeaderBytes, len);
    if (Checksum64(body) != checksum) {
      result.stop = WalScanStop::kBadChecksum;
      break;
    }
    SnapshotReader reader(body);
    const std::uint32_t version = reader.U32();
    if (!reader.ok() || version != kWalPayloadVersion) {
      result.stop = WalScanStop::kBadVersion;
      break;
    }
    WalRecord record;
    const std::uint32_t kind = reader.U32();
    record.lsn = reader.U64();
    if (kind == static_cast<std::uint32_t>(WalRecordKind::kEvent)) {
      record.kind = WalRecordKind::kEvent;
      record.sample.offset = reader.U64();
      record.sample.tenant = reader.U32();
      record.sample.tick = reader.I64();
      record.sample.access_num = reader.U64();
      record.sample.miss_num = reader.U64();
      record.disposition = reader.U32();
    } else if (kind == static_cast<std::uint32_t>(WalRecordKind::kTick)) {
      record.kind = WalRecordKind::kTick;
      record.tick = reader.I64();
    } else {
      result.stop = WalScanStop::kBadRecord;
      break;
    }
    if (!reader.ok() || !reader.exhausted()) {
      result.stop = WalScanStop::kBadRecord;
      break;
    }
    result.records.push_back(record);
    pos += kFrameHeaderBytes + len;
    result.valid_bytes = pos;
  }
  return result;
}

}  // namespace sds::svc
