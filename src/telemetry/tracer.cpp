#include "telemetry/tracer.h"

#include <cmath>
#include <ostream>

#include "common/check.h"
#include "telemetry/metrics.h"

namespace sds::telemetry {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSimMachine:
      return "sim.machine";
    case Layer::kSimCache:
      return "sim.cache";
    case Layer::kSimBus:
      return "sim.bus";
    case Layer::kSimDram:
      return "sim.dram";
    case Layer::kVm:
      return "vm";
    case Layer::kPcm:
      return "pcm";
    case Layer::kFault:
      return "fault";
    case Layer::kDetect:
      return "detect";
    case Layer::kEval:
      return "eval";
    case Layer::kLayerCount:
      break;
  }
  return "?";
}

TraceEvent& TraceEvent::Num(const char* key, double value) {
  for (auto& slot : nums) {
    if (slot.key == nullptr) {
      slot = NumField{key, value};
      return *this;
    }
  }
  SDS_DCHECK(false, "TraceEvent numeric field slots exhausted");
  return *this;
}

TraceEvent& TraceEvent::Str(const char* key, const char* value) {
  for (auto& slot : strs) {
    if (slot.key == nullptr) {
      slot = StrField{key, value};
      return *this;
    }
  }
  SDS_DCHECK(false, "TraceEvent string field slots exhausted");
  return *this;
}

TraceEvent MakeEvent(Tick tick, Layer layer, const char* name,
                     std::int64_t owner) {
  TraceEvent e;
  e.tick = tick;
  e.layer = layer;
  e.name = name;
  e.owner = owner;
  return e;
}

EventTracer::EventTracer(std::size_t capacity) : ring_(capacity) {
  EnableAllLayers();
}

void EventTracer::Emit(const TraceEvent& event) {
  if (!enabled(event.layer)) return;
  if (ring_.full()) {
    ++dropped_;
    // The OLDEST event is about to be overwritten; attribute the loss to its
    // layer so the drop breakdown says whose history vanished.
    ++dropped_by_layer_[static_cast<std::size_t>(ring_.oldest().layer)];
  }
  ring_.Push(event);
  ++emitted_;
  ++emitted_by_layer_[static_cast<std::size_t>(event.layer)];
}

namespace {

// Doubles that hold integral values (ticks, counts, owner ids routed through
// Num fields) print as integers so the JSONL stays grep- and diff-friendly.
void WriteNumber(std::ostream& os, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    os << static_cast<long long>(v);
  } else {
    os << JsonNumber{v};
  }
}

}  // namespace

void WriteEventJson(std::ostream& os, const TraceEvent& event) {
  os << "{\"type\":\"event\",\"tick\":" << event.tick << ",\"layer\":\""
     << LayerName(event.layer) << "\",\"event\":\""
     << (event.name ? event.name : "?") << '"';
  if (event.owner >= 0) os << ",\"owner\":" << event.owner;
  for (const auto& f : event.nums) {
    if (!f.key) continue;
    os << ",\"" << f.key << "\":";
    WriteNumber(os, f.value);
  }
  for (const auto& f : event.strs) {
    if (!f.key) continue;
    os << ",\"" << f.key << "\":\"" << (f.value ? f.value : "") << '"';
  }
  os << '}';
}

void EventTracer::WriteStatsJson(std::ostream& os) const {
  os << "{\"type\":\"tracer_stats\",\"capacity\":" << ring_.capacity()
     << ",\"retained\":" << ring_.size() << ",\"emitted\":" << emitted_
     << ",\"dropped\":" << dropped_;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (emitted_by_layer_[i] == 0 && dropped_by_layer_[i] == 0) continue;
    const char* name = LayerName(static_cast<Layer>(i));
    os << ",\"emitted." << name << "\":" << emitted_by_layer_[i];
    if (dropped_by_layer_[i] != 0) {
      os << ",\"dropped." << name << "\":" << dropped_by_layer_[i];
    }
  }
  os << "}";
}

std::size_t EventTracer::FlushJsonl(std::ostream& os) {
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    WriteEventJson(os, ring_[i]);
    os << '\n';
  }
  ring_.Clear();
  return n;
}

}  // namespace sds::telemetry
