#include "detect/period.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace sds::detect {
namespace {

// Minimum MA values for a meaningful DFT-ACF estimate.
constexpr std::size_t kMinSeries = 16;

// Minimum ACF strength each half of the profile window must show for the
// application to classify as periodic. Batch applications (PCA, FaceNet)
// show 0.8+ on their MissNum channel; iterative apps with drifting cycle
// lengths (k-means, join, TeraSort) stay below ~0.5.
constexpr double kMinHalfStrength = 0.55;

}  // namespace

std::optional<PeriodProfile> ClassifyPeriodicity(std::span<const double> raw,
                                                 const DetectorParams& params) {
  const std::vector<double> ma = MovingAverageSeries(
      std::vector<double>(raw.begin(), raw.end()), params.window, params.step);
  if (ma.size() < 2 * kMinSeries) return std::nullopt;

  // Both halves must independently show a consistent period: a one-off
  // transient (e.g. application startup) must not classify as periodic.
  const std::size_t half = ma.size() / 2;
  const auto first = DetectPeriod(std::span(ma).subspan(0, half));
  const auto second = DetectPeriod(std::span(ma).subspan(half));
  if (!first || !second) return std::nullopt;
  if (first->strength < kMinHalfStrength ||
      second->strength < kMinHalfStrength) {
    return std::nullopt;
  }

  const double rel_diff = std::abs(first->period - second->period) /
                          std::max(first->period, second->period);
  if (rel_diff > 0.25) return std::nullopt;

  // Refine on the full series (more cycles, better resolution); fall back to
  // the halves' average if the full-series estimate disagrees.
  const auto full = DetectPeriod(std::span(ma));
  PeriodProfile profile;
  if (full && std::abs(full->period - first->period) / first->period < 0.3) {
    profile.period = full->period;
    profile.strength = full->strength;
  } else {
    profile.period = 0.5 * (first->period + second->period);
    profile.strength = std::min(first->strength, second->strength);
  }
  return profile;
}

PeriodAnalyzer::PeriodAnalyzer(const PeriodProfile& profile,
                               const DetectorParams& params)
    : profile_(profile),
      params_(params),
      window_size_(std::max<std::size_t>(
          kMinSeries, static_cast<std::size_t>(
                          params.wp_multiplier * profile.period + 0.5))),
      ma_values_(window_size_),
      ma_(params.window, params.step) {
  SDS_CHECK(profile.period > 0.0, "period profile must be positive");
  SDS_CHECK(params.h_p >= 1, "H_P must be at least 1");
  SDS_CHECK(params.delta_wp >= 1, "delta_wp must be at least 1");
  SDS_CHECK(params.period_tolerance > 0.0, "tolerance must be positive");
}

void PeriodAnalyzer::SaveState(SnapshotWriter& w) const {
  w.F64(profile_.period);
  w.F64(profile_.strength);
  w.U64(window_size_);
  const auto [older, newer] = ma_values_.Runs();
  w.VecF64(older, newer);
  ma_.SaveState(w);
  w.U64(ma_since_check_);
  w.U64(ma_count_);
  w.I64(consecutive_);
}

bool PeriodAnalyzer::RestoreState(SnapshotReader& r) {
  const double period = r.F64();
  const double strength = r.F64();
  const std::uint64_t window_size = r.U64();
  if (!r.ok() || period != profile_.period || strength != profile_.strength ||
      window_size != window_size_) {
    return false;
  }
  const std::vector<double> ma_values = r.VecF64();
  if (!r.ok() || ma_values.size() > window_size_) return false;
  if (!ma_.RestoreState(r)) return false;
  const std::uint64_t ma_since_check = r.U64();
  const std::uint64_t ma_count = r.U64();
  const std::int64_t consecutive = r.I64();
  if (!r.ok() || consecutive < 0) return false;
  ma_values_.Clear();
  for (double v : ma_values) ma_values_.Push(v);
  ma_since_check_ = ma_since_check;
  ma_count_ = ma_count;
  consecutive_ = static_cast<int>(consecutive);
  return true;
}

std::optional<PeriodCheck> PeriodAnalyzer::Observe(double raw) {
  const auto m = ma_.Push(raw);
  if (!m) return std::nullopt;
  ma_values_.Push(*m);
  ++ma_count_;
  if (!ma_values_.full()) return std::nullopt;
  if (++ma_since_check_ < params_.delta_wp) return std::nullopt;
  ma_since_check_ = 0;

  PeriodCheck check;
  check.ma_index = ma_count_ - 1;
  const std::vector<double> window = ma_values_.ToVector();
  const auto est = DetectPeriod(window);
  if (est) check.period = est->period;

  // Abnormal when the period is gone (the attack destroyed the pattern or
  // stretched it beyond the window) or deviates from the profile by more
  // than the tolerance.
  if (!est) {
    check.abnormal = true;
  } else {
    const double deviation =
        std::abs(est->period - profile_.period) / profile_.period;
    check.abnormal = deviation > params_.period_tolerance;
  }

  consecutive_ = check.abnormal ? consecutive_ + 1 : 0;
  checks_.push_back(check);
  return check;
}

}  // namespace sds::detect
