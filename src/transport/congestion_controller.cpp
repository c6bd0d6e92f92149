#include "transport/congestion_controller.hpp"

#include <algorithm>
#include <cmath>

namespace ricsa::transport {
namespace {

/// The delay signal a law steers on: the measured round trip when the
/// transport produced one, else the kernel-drain time (an SSE stream whose
/// reader stalls shows backpressure there first), else nothing.
double delay_signal(const CongestionSample& sample) {
  if (sample.rtt_s >= 0.0) return sample.rtt_s;
  if (sample.drain_s >= 0.0) return sample.drain_s;
  return -1.0;
}

}  // namespace

const char* controller_kind_name(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kRmsa:
      return "rmsa";
    case ControllerKind::kDelayGradient:
      return "gradient";
    case ControllerKind::kTrendline:
      return "trendline";
  }
  return "rmsa";
}

// ------------------------------------------------------------------ RMSA --

RmsaPacingController::RmsaPacingController(const ControllerConfig& config)
    : config_(config) {
  reset(0.2, 0.2, 1.0);
}

void RmsaPacingController::reset(double initial_interval_s,
                                 double min_interval_s,
                                 double max_interval_s) {
  // Re-initializing restarts the Robbins-Monro gain schedule — the right
  // move whenever conditions changed (new tier, upward probe): the decayed
  // gain of the old schedule would barely track the new regime.
  RmsaConfig rmsa;
  rmsa.gain_a = config_.rmsa_gain_a;
  rmsa.alpha = config_.rmsa_alpha;
  // Frame-rate domain (the paper's Eq. 1 measures g in datagrams/s;
  // frames/s is the web analogue): one frame per burst.
  rmsa.window = 1;
  rmsa.datagram_bytes = 1;
  rmsa.initial_sleep_s =
      std::clamp(initial_interval_s, min_interval_s, max_interval_s);
  rmsa.min_sleep_s = min_interval_s;
  rmsa.max_sleep_s = max_interval_s;
  inner_ = std::make_unique<RmsaController>(rmsa);
}

double RmsaPacingController::update(const CongestionSample& sample) {
  const double delay = delay_signal(sample);
  if (delay >= 0.0) last_rtt_s_ = delay;
  // Eq. 1 with the web-layer roles: the rate under our control is the
  // offered frame rate and the reference it must converge to is the
  // client's achieved frame rate — offering more than the client drains
  // lengthens the sleep, offering less shortens it, and the fixed point is
  // offered == achieved (serve at the client's pace).
  inner_->set_target(sample.achieved_fps);
  return inner_->update(RateFeedback{sample.offered_fps, sample.loss});
}

double RmsaPacingController::interval_s() const {
  return inner_->sleep_time();
}

ControllerTelemetry RmsaPacingController::telemetry() const {
  ControllerTelemetry t;
  t.last_rtt_s = last_rtt_s_;
  return t;
}

// -------------------------------------------------- delay gradient (TIMELY)

DelayGradientController::DelayGradientController(const ControllerConfig& config)
    : config_(config) {
  reset(0.2, 0.2, 2.0);
}

void DelayGradientController::reset(double initial_interval_s,
                                    double min_interval_s,
                                    double max_interval_s) {
  min_interval_s_ = std::max(min_interval_s, 1e-6);
  max_interval_s_ = std::max(max_interval_s, min_interval_s_);
  rate_fps_ = 1.0 / std::clamp(initial_interval_s, min_interval_s_,
                               max_interval_s_);
  prev_rtt_s_ = -1.0;
  last_rtt_s_ = -1.0;
  // min_rtt_s_ survives reset() on purpose: the minimum RTT is a property
  // of the path, not of the law's state, and the probe gate needs it
  // immediately after a tier change (re-learning it at a congested level
  // would declare the standing queue "empty").
  rtt_diff_ewma_s_ = 0.0;
  gradient_ = 0.0;
  negative_run_ = 0;
}

double DelayGradientController::clamp_rate(double rate_fps) const {
  return std::clamp(rate_fps, 1.0 / max_interval_s_, 1.0 / min_interval_s_);
}

double DelayGradientController::update(const CongestionSample& sample) {
  const double rtt = delay_signal(sample);
  if (sample.loss) {
    // Delay-blind failure signal (drop, disconnect mid-write): treat like a
    // full-weight gradient excursion.
    rate_fps_ = clamp_rate(rate_fps_ * (1.0 - config_.dg_beta * 0.5));
    negative_run_ = 0;
    return 1.0 / rate_fps_;
  }
  if (rtt < 0.0) {
    // No delay signal from this transport: hold the rate (the tier/streak
    // machinery above still reacts to utilization).
    return 1.0 / rate_fps_;
  }
  last_rtt_s_ = rtt;
  min_rtt_s_ = min_rtt_s_ < 0.0 ? rtt : std::min(min_rtt_s_, rtt);
  if (prev_rtt_s_ < 0.0) {
    prev_rtt_s_ = rtt;
    return 1.0 / rate_fps_;
  }
  const double diff = rtt - prev_rtt_s_;
  prev_rtt_s_ = rtt;
  rtt_diff_ewma_s_ = (1.0 - config_.dg_ewma_alpha) * rtt_diff_ewma_s_ +
                     config_.dg_ewma_alpha * diff;
  // Normalize the smoothed per-sample RTT change by the minimum RTT seen:
  // the TIMELY gradient, unit-free.
  const double floor_rtt =
      std::max(config_.dg_min_rtt_s, min_rtt_s_ > 0.0 ? min_rtt_s_ : 0.0);
  gradient_ = rtt_diff_ewma_s_ / floor_rtt;

  if (rtt < config_.dg_t_low_s) {
    // Below the low guard band the queue is empty regardless of gradient:
    // additive increase.
    negative_run_ = 0;
    rate_fps_ = clamp_rate(rate_fps_ + config_.dg_addstep_fps);
  } else if (rtt > config_.dg_t_high_s) {
    // Above the high guard band the level itself is the emergency; decrease
    // proportionally to how far past the band the RTT sits.
    negative_run_ = 0;
    rate_fps_ = clamp_rate(
        rate_fps_ * (1.0 - config_.dg_beta * (1.0 - config_.dg_t_high_s / rtt)));
  } else if (gradient_ <= 0.0) {
    // Falling (or flat) RTT: additive increase, hyperactive after a run of
    // consecutive falling samples (TIMELY's HAI mode).
    ++negative_run_;
    const double step = negative_run_ >= config_.dg_hai_after
                            ? config_.dg_addstep_fps * config_.dg_hai_factor
                            : config_.dg_addstep_fps;
    rate_fps_ = clamp_rate(rate_fps_ + step);
  } else {
    // Rising RTT: multiplicative decrease weighted by the gradient — the
    // queue is building and throughput has not collapsed yet, which is
    // exactly the window the utilization-only law misses.
    negative_run_ = 0;
    rate_fps_ =
        clamp_rate(rate_fps_ * (1.0 - config_.dg_beta * std::min(gradient_, 1.0)));
  }
  if (sample.achieved_fps > 0.0) {
    // Tether the pacing rate to the drain rate: a long-poll/SSE session
    // cannot push the path faster than the client drains it, so offering
    // beyond achieved * headroom only builds queue. This is what keeps the
    // offered/achieved ratio near 1 at *every* tier — the tier machinery
    // then sees steady utilization instead of a collapse-and-flap cycle.
    rate_fps_ = clamp_rate(
        std::min(rate_fps_, sample.achieved_fps * config_.dg_headroom));
  }
  return 1.0 / rate_fps_;
}

double DelayGradientController::interval_s() const { return 1.0 / rate_fps_; }

bool DelayGradientController::probe_ok() const {
  // Probing up while delay still rises would re-create the flap the law
  // exists to remove. Beyond the gradient, require the queue itself to be
  // empty: RTT-above-min is TIMELY's queue-depth estimate, so a last RTT
  // well above the path minimum means a standing queue an upgrade would
  // only deepen — even if the gradient is momentarily flat.
  if (gradient_ > 0.0) return false;
  if (last_rtt_s_ < 0.0 || min_rtt_s_ < 0.0) return true;
  const double empty_rtt = std::max(
      config_.dg_t_low_s, min_rtt_s_ * config_.dg_probe_rtt_factor);
  return last_rtt_s_ <= empty_rtt;
}

ControllerTelemetry DelayGradientController::telemetry() const {
  ControllerTelemetry t;
  t.last_rtt_s = last_rtt_s_;
  t.gradient = gradient_;
  return t;
}

// -------------------------------------------------------- trendline (GCC) --

TrendlineController::TrendlineController(const ControllerConfig& config)
    : config_(config) {
  reset(0.2, 0.2, 2.0);
}

void TrendlineController::reset(double initial_interval_s,
                                double min_interval_s,
                                double max_interval_s) {
  min_interval_s_ = std::max(min_interval_s, 1e-6);
  max_interval_s_ = std::max(max_interval_s, min_interval_s_);
  rate_fps_ = 1.0 / std::clamp(initial_interval_s, min_interval_s_,
                               max_interval_s_);
  smoothed_delay_s_ = -1.0;
  last_rtt_s_ = -1.0;
  slope_ = 0.0;
  overusing_ = false;
  window_.clear();
}

double TrendlineController::clamp_rate(double rate_fps) const {
  return std::clamp(rate_fps, 1.0 / max_interval_s_, 1.0 / min_interval_s_);
}

double TrendlineController::update(const CongestionSample& sample) {
  const double delay = delay_signal(sample);
  if (sample.loss) {
    rate_fps_ = clamp_rate(rate_fps_ * config_.tl_beta);
    return 1.0 / rate_fps_;
  }
  if (delay < 0.0) return 1.0 / rate_fps_;
  last_rtt_s_ = delay;
  smoothed_delay_s_ = smoothed_delay_s_ < 0.0
                          ? delay
                          : config_.tl_smoothing * smoothed_delay_s_ +
                                (1.0 - config_.tl_smoothing) * delay;
  window_.emplace_back(sample.now_s, smoothed_delay_s_);
  while (window_.size() > static_cast<std::size_t>(config_.tl_window)) {
    window_.pop_front();
  }
  if (window_.size() >= 3) {
    // Least-squares slope of smoothed delay over arrival time: positive
    // trend = the bottleneck queue is filling.
    double mean_t = 0.0, mean_d = 0.0;
    for (const auto& [t, d] : window_) {
      mean_t += t;
      mean_d += d;
    }
    mean_t /= static_cast<double>(window_.size());
    mean_d /= static_cast<double>(window_.size());
    double num = 0.0, den = 0.0;
    for (const auto& [t, d] : window_) {
      num += (t - mean_t) * (d - mean_d);
      den += (t - mean_t) * (t - mean_t);
    }
    slope_ = den > 0.0 ? num / den : 0.0;
  }
  if (slope_ > config_.tl_slope_threshold) {
    overusing_ = true;
    // GCC's decrease acts on the *incoming-rate estimate*, not the target:
    // beta times what the path actually delivered. Decreasing the target
    // multiplicatively against itself ratchets to the floor whenever the
    // delay series stays noisy, regardless of real capacity.
    const double incoming =
        sample.achieved_fps > 0.0 ? sample.achieved_fps : rate_fps_;
    rate_fps_ =
        clamp_rate(std::min(rate_fps_, config_.tl_beta * incoming));
    // A decrease invalidates the trend it was computed from: rebuild the
    // regression window (and the fitted slope) before the next decrease so
    // one queue excursion costs one MD, not one per sample.
    window_.clear();
    slope_ = 0.0;
  } else if (slope_ < -config_.tl_slope_threshold) {
    // Underuse: the queue is draining after an overuse episode. Hold and
    // let the drain finish.
    overusing_ = false;
  } else {
    overusing_ = false;
    rate_fps_ = clamp_rate(rate_fps_ + config_.tl_addstep_fps);
  }
  if (sample.achieved_fps > 0.0) {
    // Cap the target relative to the incoming-rate estimate (GCC's
    // 1.5x-incoming ceiling): probing is allowed, runaway targets are not.
    rate_fps_ = clamp_rate(
        std::min(rate_fps_, sample.achieved_fps * config_.tl_headroom));
  }
  return 1.0 / rate_fps_;
}

double TrendlineController::interval_s() const { return 1.0 / rate_fps_; }

ControllerTelemetry TrendlineController::telemetry() const {
  ControllerTelemetry t;
  t.last_rtt_s = last_rtt_s_;
  t.gradient = slope_;
  return t;
}

std::unique_ptr<CongestionController> make_controller(
    const ControllerConfig& config) {
  switch (config.kind) {
    case ControllerKind::kDelayGradient:
      return std::make_unique<DelayGradientController>(config);
    case ControllerKind::kTrendline:
      return std::make_unique<TrendlineController>(config);
    case ControllerKind::kRmsa:
      break;
  }
  return std::make_unique<RmsaPacingController>(config);
}

}  // namespace ricsa::transport
