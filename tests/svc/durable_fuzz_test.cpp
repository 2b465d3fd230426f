// Seeded mutation fuzzing of the service's durable state (DESIGN.md §14):
// a real service's WAL tail and checkpoint blob take bit flips, truncations,
// splices and length-field rewrites, and
//   - WalReader::Scan returns exactly the reference records that precede
//     the first damaged frame (plus, after a splice, the intact frames the
//     splice carried over whole, which are valid frames in their own right);
//   - OpenSnapshot refuses every changed checkpoint blob;
//   - Recover() neither crashes nor restores part of a damaged checkpoint:
//     its state equals a recovery that never saw the damaged bytes.
// The pattern is TraceInspectMutation's (tests/tools): a seeded sds::Rng
// picks each mutation, so every failure replays exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "obs/snapshot.h"
#include "svc/service.h"
#include "svc/store.h"
#include "svc/wal.h"

namespace sds::svc {
namespace {

constexpr std::uint32_t kTenants = 24;
constexpr Tick kTicks = 300;

SvcConfig FuzzConfig() {
  SvcConfig c;
  c.pipeline.mode = PipelineMode::kSds;
  c.pipeline.det.window = 20;
  c.pipeline.det.step = 5;
  c.pipeline.det.h_c = 3;
  c.pipeline.profile_len = 40;
  c.max_tenants = 32;
  // 24 offers against 16 drains per tick: the queue fills to the coalesce
  // and shed depths, so the log carries every admission disposition.
  c.drain_per_tick = 16;
  c.admission.coalesce_depth = 24;
  c.admission.shed_depth = 48;
  // The last checkpoint lands at tick 256, leaving a WAL tail behind it.
  c.checkpoint_every_ticks = 64;
  return c;
}

// The durable state a live service leaves behind.
struct Durable {
  std::string wal;
  std::string checkpoint;
};

Durable RunService() {
  MemStore store;
  DetectionService service(FuzzConfig(), &store);
  service.Recover();
  Rng rng(42);
  std::uint64_t offset = 1;
  for (Tick t = 0; t < kTicks; ++t) {
    EXPECT_TRUE(service.AdvanceTick(t));
    for (std::uint32_t u = 0; u < kTenants; ++u) {
      SvcSample s;
      s.tenant = u;
      s.tick = t;
      s.access_num = 2000 + rng.UniformInt(std::uint64_t{800});
      if (u == 0 && t >= 150) s.access_num += 40000;
      s.miss_num = s.access_num / 4;
      s.offset = offset++;
      EXPECT_TRUE(service.Offer(s));
    }
  }
  return {store.ReadWal(), store.ReadCheckpoint()};
}

const Durable& Reference() {
  static const Durable durable = RunService();
  return durable;
}

// Byte offset at which each frame of a clean log starts, plus the end.
std::vector<std::size_t> FrameStarts(std::string_view wal) {
  std::vector<std::size_t> starts{0};
  while (starts.back() < wal.size()) {
    starts.push_back(starts.back() + 12 +
                     LoadLe<std::uint32_t>(wal.data() + starts.back()));
  }
  return starts;
}

bool SameRecord(const WalRecord& a, const WalRecord& b) {
  return a.kind == b.kind && a.lsn == b.lsn &&
         a.sample.offset == b.sample.offset &&
         a.sample.tenant == b.sample.tenant && a.sample.tick == b.sample.tick &&
         a.sample.access_num == b.sample.access_num &&
         a.sample.miss_num == b.sample.miss_num &&
         a.disposition == b.disposition && a.tick == b.tick;
}

// A little-endian length field inside a blob: its offset and width.
struct LengthField {
  std::size_t at = 0;
  std::size_t width = 0;
};

// One seeded mutation: bit flip, truncation, splice of the blob with
// itself at another offset, or a rewritten length field.
std::string Mutate(const std::string& clean,
                   const std::vector<LengthField>& lengths, Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.UniformInt(std::uint64_t{n}));
  };
  std::string s = clean;
  switch (pick(4)) {
    case 0:  // bit flip
      s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 1:  // truncate
      s.resize(pick(s.size()));
      break;
    case 2:  // splice: a prefix, then a suffix from elsewhere in the blob
      s = clean.substr(0, pick(clean.size() + 1)) +
          clean.substr(pick(clean.size() + 1));
      break;
    default: {  // length rewrite: off by a little, or anything at all
      const LengthField f = lengths[pick(lengths.size())];
      std::uint64_t v = f.width == 4 ? LoadLe<std::uint32_t>(s.data() + f.at)
                                     : LoadLe<std::uint64_t>(s.data() + f.at);
      v = rng.Bernoulli(0.5) ? v + 1 + pick(16) - 8 : rng();
      if (f.width == 4) {
        StoreLe(s.data() + f.at, static_cast<std::uint32_t>(v));
      } else {
        StoreLe(s.data() + f.at, v);
      }
    }
  }
  return s;
}

// What a scan of `damaged` must return: the clean log's records up to the
// first frame holding a changed byte, then — only where the bytes from
// there on are a whole-frame suffix of the clean log (a splice on frame
// boundaries) — that suffix's records.
std::vector<WalRecord> ExpectedRecords(const std::string& clean,
                                       const std::vector<std::size_t>& starts,
                                       const std::vector<WalRecord>& records,
                                       const std::string& damaged) {
  std::size_t first_diff = 0;
  while (first_diff < damaged.size() && first_diff < clean.size() &&
         damaged[first_diff] == clean[first_diff]) {
    ++first_diff;
  }
  std::size_t intact = 0;
  while (intact < records.size() && starts[intact + 1] <= first_diff) {
    ++intact;
  }
  std::vector<WalRecord> expected(records.begin(),
                                  records.begin() +
                                      static_cast<std::ptrdiff_t>(intact));
  const std::size_t resume = starts[intact];
  const std::size_t rest = damaged.size() - resume;
  if (rest <= clean.size()) {
    const std::size_t from = clean.size() - rest;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      if (starts[i] == from &&
          std::string_view(clean).substr(from) ==
              std::string_view(damaged).substr(resume)) {
        expected.insert(expected.end(),
                        records.begin() + static_cast<std::ptrdiff_t>(i),
                        records.end());
      }
    }
  }
  return expected;
}

TEST(DurableFuzz, WalScanKeepsExactlyTheIntactPrefix) {
  const std::string& clean = Reference().wal;
  const WalScanResult ref = WalReader::Scan(clean);
  ASSERT_EQ(ref.stop, WalScanStop::kCleanEnd);
  ASSERT_GT(ref.records.size(), 500u);
  const std::vector<std::size_t> starts = FrameStarts(clean);
  ASSERT_EQ(starts.size(), ref.records.size() + 1);
  std::vector<LengthField> lengths;
  for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
    lengths.push_back({starts[i], 4});
  }

  Rng rng(20200707);
  std::size_t clean_ends = 0, stopped_early = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string damaged = Mutate(clean, lengths, rng);
    const WalScanResult r = WalReader::Scan(damaged);
    const std::vector<WalRecord> expected =
        ExpectedRecords(clean, starts, ref.records, damaged);
    ASSERT_EQ(r.records.size(), expected.size()) << "iteration " << i;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_TRUE(SameRecord(r.records[k], expected[k]))
          << "iteration " << i << " record " << k;
    }
    ASSERT_LE(r.valid_bytes, damaged.size());
    ASSERT_EQ(r.stop == WalScanStop::kCleanEnd,
              r.valid_bytes == damaged.size())
        << "iteration " << i;
    ++(r.stop == WalScanStop::kCleanEnd ? clean_ends : stopped_early);
  }
  // The corpus reaches both outcomes (a clean end needs a cut or splice on
  // a frame boundary).
  EXPECT_GT(clean_ends, 10u);
  EXPECT_GT(stopped_early, 500u);
}

TEST(DurableFuzz, OpenSnapshotRefusesEveryChangedCheckpoint) {
  const std::string& clean = Reference().checkpoint;
  const std::uint64_t fingerprint = FuzzConfig().Fingerprint();
  std::string payload;
  ASSERT_EQ(obs::OpenSnapshot(clean, "svc_checkpoint", fingerprint, &payload),
            obs::SnapshotStatus::kOk);
  // Envelope length fields: the kind string's and the payload's.
  const std::size_t kind_len = std::string_view("svc_checkpoint").size();
  const std::vector<LengthField> lengths = {{18, 8}, {45 + kind_len, 8}};
  ASSERT_EQ(LoadLe<std::uint64_t>(clean.data() + 18), kind_len);
  ASSERT_EQ(LoadLe<std::uint64_t>(clean.data() + 45 + kind_len),
            payload.size());

  Rng rng(19);
  std::size_t changed = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string damaged = Mutate(clean, lengths, rng);
    if (damaged == clean) continue;  // a splice that put the bytes back
    ++changed;
    ASSERT_NE(obs::OpenSnapshot(damaged, "svc_checkpoint", fingerprint,
                                &payload),
              obs::SnapshotStatus::kOk)
        << "iteration " << i;
  }
  EXPECT_GT(changed, 3900u);
}

// The service state a recovery ends in, as the checkpoint it would write.
std::string RecoveredState(const std::string& checkpoint,
                           const std::string& wal,
                           SvcIncarnation* incarnation) {
  MemStore store;
  if (!checkpoint.empty()) store.WriteCheckpoint(checkpoint);
  if (!wal.empty()) store.AppendWal(wal);
  DetectionService service(FuzzConfig(), &store);
  service.Recover();
  EXPECT_TRUE(service.Checkpoint());
  if (incarnation != nullptr) *incarnation = service.incarnation();
  return store.ReadCheckpoint();
}

TEST(DurableFuzz, RecoverNeverRestoresDamagedBytes) {
  const Durable& clean = Reference();
  const std::vector<std::size_t> starts = FrameStarts(clean.wal);
  std::vector<LengthField> wal_lengths;
  for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
    wal_lengths.push_back({starts[i], 4});
  }
  const std::size_t kind_len = std::string_view("svc_checkpoint").size();
  const std::vector<LengthField> ckpt_lengths = {{18, 8},
                                                 {45 + kind_len, 8}};
  // Without its checkpoint, a recovery replays the WAL tail alone.
  const std::string wal_only = RecoveredState("", clean.wal, nullptr);

  Rng rng(7);
  for (int i = 0; i < 150; ++i) {
    // A damaged checkpoint is refused whole: the state equals a recovery
    // that had no checkpoint at all.
    const std::string ckpt = Mutate(clean.checkpoint, ckpt_lengths, rng);
    if (ckpt != clean.checkpoint) {
      SvcIncarnation inc;
      EXPECT_EQ(RecoveredState(ckpt, clean.wal, &inc), wal_only)
          << "checkpoint iteration " << i;
      EXPECT_FALSE(inc.recovered_from_checkpoint);
      EXPECT_NE(inc.checkpoint_status, obs::SnapshotStatus::kOk);
    }
    // A damaged WAL contributes its intact frames and nothing else: the
    // state equals a recovery from just the bytes the scan kept.
    const std::string wal = Mutate(clean.wal, wal_lengths, rng);
    const WalScanResult scan = WalReader::Scan(wal);
    SvcIncarnation inc;
    EXPECT_EQ(RecoveredState(clean.checkpoint, wal, &inc),
              RecoveredState(clean.checkpoint,
                             wal.substr(0, scan.valid_bytes), nullptr))
        << "wal iteration " << i;
    EXPECT_TRUE(inc.recovered_from_checkpoint);
    EXPECT_EQ(inc.recovery_wal_valid_bytes, scan.valid_bytes);
    EXPECT_EQ(inc.recovery_wal_stop, scan.stop);
  }
}

}  // namespace
}  // namespace sds::svc
