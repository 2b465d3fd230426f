#include "pcm/pcm_sampler.h"

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace sds::pcm {

namespace tel = sds::telemetry;

const char* ChannelName(Channel c) {
  return c == Channel::kAccessNum ? "AccessNum" : "MissNum";
}

PcmSampler::PcmSampler(vm::Hypervisor& hypervisor, OwnerId target)
    : hypervisor_(hypervisor), target_(target) {
  if (tel::Telemetry* t = hypervisor_.telemetry()) {
    t_samples_ = t->metrics().GetCounter("pcm.samples");
    t_sessions_ = t->metrics().GetCounter("pcm.monitor_sessions");
    t_missed_ticks_ = t->metrics().GetCounter("pcm.missed_ticks");
  }
}

PcmSampler::~PcmSampler() {
  if (started_) Stop();
}

void PcmSampler::TracePcm(const char* name) {
  tel::Telemetry* t = hypervisor_.telemetry();
  if (!t || !t->tracer().enabled(tel::Layer::kPcm)) return;
  t->tracer().Emit(tel::MakeEvent(hypervisor_.now(), tel::Layer::kPcm, name,
                                  target_));
}

void PcmSampler::Start() {
  SDS_CHECK(!started_, "sampler already started");
  started_ = true;
  hypervisor_.AttachMonitor();
  if (t_sessions_) t_sessions_->Add();
  TracePcm("sampler_start");
  // Align deltas with the start of monitoring.
  const sim::OwnerCounters& c = hypervisor_.machine().counters(target_);
  last_accesses_ = c.llc_accesses;
  last_misses_ = c.llc_misses;
  last_read_tick_ = hypervisor_.now();
  last_span_ = 1;
}

void PcmSampler::Stop() {
  SDS_CHECK(started_, "sampler not started");
  started_ = false;
  hypervisor_.DetachMonitor();
  TracePcm("sampler_stop");
}

PcmSample PcmSampler::Sample() {
  SDS_CHECK(started_, "sampler not started");
  const Tick now = hypervisor_.now();
  SDS_CHECK(now != last_read_tick_,
            "PcmSampler::Sample() called twice in one tick: the second delta "
            "would be zero and skew every downstream statistic");
  if (now > last_read_tick_ + 1) {
    // Missed tick(s): tolerated — the delta below spans the gap. Surface the
    // coalescing so detectors and trace readers can account for it.
    const auto skipped = static_cast<std::uint64_t>(now - last_read_tick_ - 1);
    missed_ticks_ += skipped;
    if (t_missed_ticks_) {
      t_missed_ticks_->Add(skipped);
      tel::Telemetry* t = hypervisor_.telemetry();
      if (t->tracer().enabled(tel::Layer::kPcm)) {
        t->tracer().Emit(tel::MakeEvent(now, tel::Layer::kPcm, "missed_ticks",
                                        target_)
                             .Num("skipped", static_cast<double>(skipped)));
      }
    }
  }
  last_span_ = now - last_read_tick_;
  last_read_tick_ = now;
  const sim::OwnerCounters& c = hypervisor_.machine().counters(target_);
  PcmSample s;
  s.tick = now;
  s.access_num = c.llc_accesses - last_accesses_;
  s.miss_num = c.llc_misses - last_misses_;
  last_accesses_ = c.llc_accesses;
  last_misses_ = c.llc_misses;
  if (t_samples_) {
    t_samples_->Add();
    tel::Telemetry* t = hypervisor_.telemetry();
    if (t->tracer().enabled(tel::Layer::kPcm)) {
      t->tracer().Emit(tel::MakeEvent(s.tick, tel::Layer::kPcm, "sample",
                                      target_)
                           .Num("access_num", static_cast<double>(s.access_num))
                           .Num("miss_num", static_cast<double>(s.miss_num)));
    }
  }
  return s;
}

std::vector<PcmSample> CollectSamples(vm::Hypervisor& hypervisor,
                                      PcmSampler& sampler, Tick ticks) {
  SDS_CHECK(ticks >= 0, "tick count must be non-negative");
  std::vector<PcmSample> samples;
  samples.reserve(static_cast<std::size_t>(ticks));
  for (Tick t = 0; t < ticks; ++t) {
    hypervisor.RunTick();
    samples.push_back(sampler.Sample());
  }
  return samples;
}

}  // namespace sds::pcm
