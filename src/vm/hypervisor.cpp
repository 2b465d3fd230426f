#include "vm/hypervisor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace sds::vm {

namespace tel = sds::telemetry;

Hypervisor::Hypervisor(sim::Machine& machine, const HypervisorConfig& config,
                       Rng rng)
    : machine_(machine), config_(config), rng_(rng) {
  SDS_CHECK(config.schedule_chunk > 0, "schedule chunk must be positive");
  SDS_CHECK(config.monitor_load_fraction >= 0.0 &&
                config.monitor_load_fraction < 1.0,
            "monitor load fraction must be in [0, 1)");
  if (tel::Telemetry* t = machine_.telemetry()) {
    tel::MetricsRegistry& m = t->metrics();
    t_scheduled_ops_ = m.GetCounter("vm.scheduled_ops");
    t_monitor_dropped_ = m.GetCounter("vm.monitor_dropped_ops");
    t_throttle_windows_ = m.GetCounter("vm.throttle_windows");
    t_runnable_vms_ = m.GetGauge("vm.runnable_vms");
  }
}

void Hypervisor::TraceEventVm(const char* name, std::int64_t owner,
                              const char* key, double value) {
  tel::Telemetry* t = machine_.telemetry();
  if (!t || !t->tracer().enabled(tel::Layer::kVm)) return;
  tel::TraceEvent e =
      tel::MakeEvent(machine_.now(), tel::Layer::kVm, name, owner);
  if (key) e.Num(key, value);
  t->tracer().Emit(e);
}

OwnerId Hypervisor::CreateVm(std::string name,
                             std::unique_ptr<Workload> workload) {
  const auto id = static_cast<OwnerId>(vms_.size() + 1);
  SDS_CHECK(id < machine_.config().max_owners,
            "machine counter file has no room for another VM");
  vms_.push_back(std::make_unique<VirtualMachine>(
      id, std::move(name), std::move(workload), rng_.Fork()));
  vm_throttle_remaining_.push_back(0);
  TraceEventVm("vm_created", id, nullptr, 0.0);
  return id;
}

void Hypervisor::ThrottleVm(OwnerId id, Tick duration) {
  SDS_CHECK(id >= 1 && id <= vms_.size(), "no such VM");
  SDS_CHECK(duration > 0, "throttle duration must be positive");
  vm_throttle_remaining_[id - 1] = duration;
  if (t_throttle_windows_) t_throttle_windows_->Add();
  TraceEventVm("throttle_vm", id, "duration", static_cast<double>(duration));
}

bool Hypervisor::vm_throttled(OwnerId id) const {
  SDS_CHECK(id >= 1 && id <= vms_.size(), "no such VM");
  return vm_throttle_remaining_[id - 1] > 0;
}

VirtualMachine& Hypervisor::vm(OwnerId id) {
  SDS_CHECK(id >= 1 && id <= vms_.size(), "no such VM");
  return *vms_[id - 1];
}

const VirtualMachine& Hypervisor::vm(OwnerId id) const {
  SDS_CHECK(id >= 1 && id <= vms_.size(), "no such VM");
  return *vms_[id - 1];
}

void Hypervisor::ThrottleAllExcept(OwnerId protected_vm, Tick duration) {
  SDS_CHECK(duration > 0, "throttle duration must be positive");
  throttle_protected_ = protected_vm;
  throttle_remaining_ = duration;
  if (t_throttle_windows_) t_throttle_windows_->Add();
  TraceEventVm("throttle_all_except", protected_vm, "duration",
               static_cast<double>(duration));
}

void Hypervisor::UpdateDropProbability() {
  drop_probability_ =
      1.0 - std::pow(1.0 - config_.monitor_load_fraction,
                     static_cast<double>(active_monitors_));
}

void Hypervisor::AttachMonitor() {
  ++active_monitors_;
  UpdateDropProbability();
  TraceEventVm("monitor_attach", -1, "active",
               static_cast<double>(active_monitors_));
}

void Hypervisor::DetachMonitor() {
  SDS_CHECK(active_monitors_ > 0, "no monitor attached");
  --active_monitors_;
  UpdateDropProbability();
  TraceEventVm("monitor_detach", -1, "active",
               static_cast<double>(active_monitors_));
}

void Hypervisor::RunTick() {
  machine_.BeginTick();

  const bool throttling = throttle_remaining_ > 0;
  if (throttling) --throttle_remaining_;

  // Collect the VMs that may execute this tick.
  slots_.clear();
  for (const auto& v : vms_) {
    Tick& per_vm = vm_throttle_remaining_[v->id() - 1];
    const bool vm_throttled_now = per_vm > 0;
    if (vm_throttled_now) --per_vm;
    if (!v->runnable()) continue;
    if (throttling && v->id() != throttle_protected_) continue;
    if (vm_throttled_now) continue;
    v->workload().BeginTick(machine_.now());
    slots_.push_back(Slot{v.get()});
  }
  if (t_runnable_vms_) {
    t_runnable_vms_->Set(static_cast<double>(slots_.size()));
  }
  if (slots_.empty()) return;

  std::uint64_t ops_this_tick = 0;
  std::uint64_t dropped_this_tick = 0;

  // Round-robin service in chunks, starting from a rotating offset.
  const std::size_t start =
      static_cast<std::size_t>(machine_.now()) % slots_.size();
  std::size_t remaining = slots_.size();
  while (remaining > 0) {
    remaining = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[(start + i) % slots_.size()];
      if (slot.exhausted) continue;
      Workload& w = slot.vm->workload();
      const OwnerId owner = slot.vm->id();
      for (std::uint32_t c = 0; c < config_.schedule_chunk; ++c) {
        sim::MemOp op;
        if (!w.NextOp(op)) {
          slot.exhausted = true;
          break;
        }
        ++ops_this_tick;
        if (drop_probability_ > 0.0 && rng_.Bernoulli(drop_probability_)) {
          // Cycles stolen by the monitoring agent: the op is deferred and
          // does not execute this tick.
          ++monitor_dropped_ops_;
          ++dropped_this_tick;
          w.OnOutcome(op, sim::AccessOutcome::kStalled);
          continue;
        }
        const sim::AccessOutcome outcome =
            op.atomic ? machine_.AtomicAccess(owner, op.addr)
                      : machine_.Access(owner, op.addr);
        w.OnOutcome(op, outcome);
        if (outcome == sim::AccessOutcome::kStalled) {
          slot.exhausted = true;
          break;
        }
      }
      if (!slot.exhausted) ++remaining;
    }
  }

  if (t_scheduled_ops_) {
    t_scheduled_ops_->Add(ops_this_tick);
    t_monitor_dropped_->Add(dropped_this_tick);
  }
}

}  // namespace sds::vm
