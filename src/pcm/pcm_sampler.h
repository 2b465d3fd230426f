// Processor Counter Monitor (PCM) model.
//
// The real Intel PCM tool runs on the hypervisor and reads per-core/uncore
// performance counters every T_PCM seconds; the paper's detectors consume
// the resulting per-interval LLC access count (AccessNum) and LLC miss count
// (MissNum) of the monitored VM. Here one simulator tick IS one T_PCM
// interval, so the sampler reads the machine's cumulative per-owner counter
// registers once per tick and emits the deltas.
//
// Monitoring is not free: while started, the sampler registers itself with
// the hypervisor's monitoring-load model (reading MSRs across all logical
// cores costs real CPU time), which is the source of SDS's small but nonzero
// performance overhead in Figure 12.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "pcm/sample_source.h"
#include "sim/machine.h"
#include "vm/hypervisor.h"

namespace sds::pcm {

struct PcmSample {
  Tick tick = 0;
  // LLC accesses of the monitored VM in this T_PCM interval.
  std::uint64_t access_num = 0;
  // LLC misses of the monitored VM in this T_PCM interval.
  std::uint64_t miss_num = 0;
};

// Which statistic a detector consumes: AccessNum reacts to the bus locking
// attack, MissNum to the LLC cleansing attack (paper Section 3.1).
enum class Channel : std::uint8_t { kAccessNum, kMissNum };

inline double SampleValue(const PcmSample& s, Channel c) {
  return c == Channel::kAccessNum ? static_cast<double>(s.access_num)
                                  : static_cast<double>(s.miss_num);
}

const char* ChannelName(Channel c);

class PcmSampler final : public SampleSource {
 public:
  // Monitors VM `target` on `hypervisor`'s machine. The sampler starts
  // stopped; call Start() to begin monitoring (and paying its overhead).
  PcmSampler(vm::Hypervisor& hypervisor, OwnerId target);
  ~PcmSampler() override;

  PcmSampler(const PcmSampler&) = delete;
  PcmSampler& operator=(const PcmSampler&) = delete;

  void Start() override;
  void Stop() override;
  bool started() const override { return started_; }

  // Reads the target's counters and returns the delta since the previous
  // Sample() call.
  //
  // Once-per-tick contract: calling Sample() twice within the same
  // hypervisor tick is a caller bug — the second delta would always be zero
  // and silently bias every downstream statistic — and aborts with an
  // SDS_CHECK. Skipped ticks are TOLERATED: the returned delta then spans
  // the whole gap (cumulative counters lose nothing), which is exactly what
  // real PCM reports after a missed read; the sampler counts the skipped
  // ticks in the `pcm.missed_ticks` metric and emits a `missed_ticks` trace
  // event so the gap is visible in telemetry.
  PcmSample Sample();

  // SampleSource: the perfect monitoring plane — one sample per tick,
  // always delivered.
  std::optional<PcmSample> Next() override { return Sample(); }

  OwnerId target() const override { return target_; }

  // Intervals covered by the last Sample() delta (1 unless ticks were
  // skipped before that read).
  Tick last_span() const override { return last_span_; }

  // A healthy sampler "restarts" by re-baselining: Stop() + Start(), so the
  // next delta never spans whatever gap prompted the restart.
  bool TryRestart() override {
    if (started_) {
      Stop();
      Start();
    }
    return true;
  }

  // Ticks whose samples were absorbed into a later, wider delta because the
  // caller skipped them (see Sample()).
  std::uint64_t missed_ticks() const { return missed_ticks_; }

 private:
  void TracePcm(const char* name);

  vm::Hypervisor& hypervisor_;
  OwnerId target_;
  bool started_ = false;
  std::uint64_t last_accesses_ = 0;
  std::uint64_t last_misses_ = 0;
  // Tick of the previous Sample() (or Start()) — enforces the contract.
  Tick last_read_tick_ = kInvalidTick;
  Tick last_span_ = 1;
  std::uint64_t missed_ticks_ = 0;
  // Telemetry instrument slots (resolved from the hypervisor's handle).
  telemetry::Counter* t_samples_ = nullptr;
  telemetry::Counter* t_sessions_ = nullptr;
  telemetry::Counter* t_missed_ticks_ = nullptr;
};

// Convenience: runs the hypervisor for `ticks` ticks with the sampler
// started, collecting one sample per tick.
std::vector<PcmSample> CollectSamples(vm::Hypervisor& hypervisor,
                                      PcmSampler& sampler, Tick ticks);

}  // namespace sds::pcm
