#include "signal/moving_average.h"

#include "common/check.h"

namespace sds {

SlidingWindowAverage::SlidingWindowAverage(std::size_t window, std::size_t step)
    : window_(window), step_(step), buf_(window) {
  SDS_CHECK(window > 0, "window must be positive");
  SDS_CHECK(step > 0, "step must be positive");
  SDS_CHECK(step <= window, "step must not exceed window");
}

std::optional<double> SlidingWindowAverage::Push(double raw) {
  if (buf_.full()) window_sum_ -= buf_.oldest();
  buf_.Push(raw);
  window_sum_ += raw;

  if (!first_window_done_) {
    if (buf_.size() == window_) {
      first_window_done_ = true;
      ++windows_emitted_;
      return window_sum_ / static_cast<double>(window_);
    }
    return std::nullopt;
  }

  if (++since_last_emit_ == step_) {
    since_last_emit_ = 0;
    ++windows_emitted_;
    return window_sum_ / static_cast<double>(window_);
  }
  return std::nullopt;
}

void SlidingWindowAverage::Reset() {
  buf_.Clear();
  window_sum_ = 0.0;
  since_last_emit_ = 0;
  first_window_done_ = false;
  windows_emitted_ = 0;
}

void SlidingWindowAverage::SaveState(SnapshotWriter& w) const {
  w.U64(window_);
  w.U64(step_);
  const auto [older, newer] = buf_.Runs();
  w.VecF64(older, newer);
  w.F64(window_sum_);
  w.U64(since_last_emit_);
  w.Bool(first_window_done_);
  w.U64(windows_emitted_);
}

bool SlidingWindowAverage::RestoreState(SnapshotReader& r) {
  const std::uint64_t window = r.U64();
  const std::uint64_t step = r.U64();
  const std::vector<double> buf = r.VecF64();
  const double window_sum = r.F64();
  const std::uint64_t since_last_emit = r.U64();
  const bool first_window_done = r.Bool();
  const std::uint64_t windows_emitted = r.U64();
  if (!r.ok() || window != window_ || step != step_ ||
      buf.size() > window_) {
    return false;
  }
  buf_.Clear();
  for (double v : buf) buf_.Push(v);
  window_sum_ = window_sum;
  since_last_emit_ = since_last_emit;
  first_window_done_ = first_window_done;
  windows_emitted_ = windows_emitted;
  return true;
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  SDS_CHECK(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
}

double Ewma::Push(double m) {
  if (!has_value_) {
    value_ = m;  // S_0 = M_0
    has_value_ = true;
  } else {
    value_ = (1.0 - alpha_) * value_ + alpha_ * m;
  }
  return value_;
}

void Ewma::Reset() {
  value_ = 0.0;
  has_value_ = false;
}

void Ewma::SaveState(SnapshotWriter& w) const {
  w.F64(alpha_);
  w.F64(value_);
  w.Bool(has_value_);
}

bool Ewma::RestoreState(SnapshotReader& r) {
  const double alpha = r.F64();
  const double value = r.F64();
  const bool has_value = r.Bool();
  if (!r.ok() || alpha != alpha_) return false;
  value_ = value;
  has_value_ = has_value;
  return true;
}

std::vector<double> MovingAverageSeries(const std::vector<double>& raw,
                                        std::size_t window, std::size_t step) {
  SlidingWindowAverage ma(window, step);
  std::vector<double> out;
  for (double v : raw) {
    if (const auto m = ma.Push(v)) out.push_back(*m);
  }
  return out;
}

std::vector<double> EwmaSeries(const std::vector<double>& m, double alpha) {
  Ewma ewma(alpha);
  std::vector<double> out;
  out.reserve(m.size());
  for (double v : m) out.push_back(ewma.Push(v));
  return out;
}

}  // namespace sds
