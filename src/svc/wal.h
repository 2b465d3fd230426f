// Checksummed write-ahead log for the streaming detection service.
//
// The WAL is a full OPERATION log, not a sample log: every event the feed
// offers gets exactly one record — admitted, coalesced, shed, or rejected —
// in transport-offset order, plus one record per tick advance. That choice
// is what makes crash recovery bit-identical: quarantine counters, shed
// accounting and coalesce merges are side effects of REJECTED events, so a
// log of admitted samples alone could never rebuild them. Replay re-APPLIES
// each record's recorded disposition; it never re-judges the admission
// ladder (whose verdicts can depend on volatile state the crash destroyed).
//
// Frame format, repeated until end-of-log:
//
//   u32 payload_len | u64 Checksum64(payload) | payload
//
// with all integers little-endian and the payload a common/snapshot.h field
// stream beginning with U32 kWalPayloadVersion (= obs::kSnapshotVersion) —
// the same version pin the checkpoint envelopes carry, so one
// release-format bump invalidates both halves of the durable state together
// (enforced by sdslint's det-wal-versioned rule). Then: U32 record kind,
// U64 LSN, kind fields.
//
// WalReader scans a raw byte string (possibly ending in a torn frame — the
// normal aftermath of a crash) and stops at the first frame that is
// incomplete, checksum-corrupt, or version-mismatched, reporting how many
// bytes were valid and why it stopped. A torn tail is EXPECTED, not an
// error: recovery keeps the valid prefix and relies on at-least-once
// redelivery for the rest.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "obs/snapshot.h"
#include "svc/sample.h"

namespace sds::svc {

// The version every WAL payload opens with — deliberately the checkpoint
// envelope's pin, so one release-format bump invalidates both halves of the
// durable state together.
inline constexpr std::uint32_t kWalPayloadVersion = obs::kSnapshotVersion;

enum class WalRecordKind : std::uint32_t {
  // One offered event and the disposition the service chose for it. The
  // full sample rides along: coalesce replay needs the counter values, and
  // accounting replay needs the tenant.
  kEvent = 0,
  // The service advanced to `tick` and drained its queue into the tenant
  // pipelines. Replay re-runs the drain (deterministic given the queue and
  // tenant state the preceding records rebuilt).
  kTick = 1,
};

struct WalRecord {
  WalRecordKind kind = WalRecordKind::kEvent;
  std::uint64_t lsn = 0;
  // kEvent fields (sample.offset is the transport dedup key).
  SvcSample sample;
  std::uint32_t disposition = 0;  // svc::Disposition enum value
  // kTick field.
  Tick tick = 0;
};

// Why a WAL scan stopped.
enum class WalScanStop : std::uint8_t {
  kCleanEnd = 0,   // consumed every byte
  kTornFrame,      // partial header or payload at the tail
  kBadChecksum,    // payload bytes do not match the frame checksum
  kBadVersion,     // payload sealed by a different release
  kBadRecord,      // field stream malformed despite a good checksum
};

const char* WalScanStopName(WalScanStop stop);

struct WalScanResult {
  std::vector<WalRecord> records;
  // Bytes of `bytes` covered by intact frames (recovery truncates here).
  std::uint64_t valid_bytes = 0;
  WalScanStop stop = WalScanStop::kCleanEnd;
};

// Encodes one record as a framed WAL entry ready for StableStore::AppendWal.
class WalWriter {
 public:
  // Appends the frame to `*log`, reusing its capacity.
  static void AppendFrame(const WalRecord& record, std::string* log);
  // The frame alone, as a fresh string.
  static std::string EncodeFrame(const WalRecord& record);
};

// Decodes a WAL byte string, tolerating a torn tail.
class WalReader {
 public:
  static WalScanResult Scan(std::string_view bytes);
};

}  // namespace sds::svc
