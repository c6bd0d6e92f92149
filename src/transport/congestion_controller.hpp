// Pluggable per-session congestion controllers for the web pacing stack.
//
// The paper's Robbins-Monro controller (Eq. 1, rate_controller.hpp) reacts
// to goodput utilization only: it cannot see queue growth until throughput
// has already collapsed, so slow-WAN sessions flap between quality tiers
// instead of settling. Both web transports (long-poll and SSE) measure a
// per-delivery round trip — response dispatch to kernel drain — that a
// delay-based law can steer on *before* the queue overflows.
//
// This interface abstracts the control law behind the per-session pacing in
// web/session.hpp. One feedback sample per completed delivery carries the
// rate signals (offered/achieved frame rate), the delay signals (RTT and
// kernel-drain time), the body size, and a loss flag; the controller
// proposes the next minimum inter-frame interval.
//
//  * RmsaPacingController — the paper's Eq. 1 in the frame-rate domain,
//    bit-identical to the previously hard-wired RmsaController usage.
//  * DelayGradientController — TIMELY-style RTT-gradient control: additive
//    increase below T_low, multiplicative decrease above T_high or on a
//    rising gradient, hyperactive increase after a run of falling RTTs.
//  * TrendlineController — GCC-style least-squares slope of the smoothed
//    delay series feeding an overuse detector driving AIMD.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>

#include "transport/rate_controller.hpp"

namespace ricsa::transport {

/// One completed-delivery feedback sample.
struct CongestionSample {
  double now_s = 0.0;
  /// Frame rate the session's pacing currently offers (frames/s).
  double offered_fps = 0.0;
  /// Frame rate the client demonstrably drains (frames/s).
  double achieved_fps = 0.0;
  /// Dispatch-to-drain round trip for this delivery, seconds; < 0 when the
  /// transport produced no sample.
  double rtt_s = -1.0;
  /// Kernel-drain time of this body (enqueue to socket-buffer empty),
  /// seconds; < 0 when unknown.
  double drain_s = -1.0;
  /// Body bytes written.
  std::size_t bytes = 0;
  /// Delivery contract violated (drop, disconnect mid-write).
  bool loss = false;
};

/// Controller telemetry surfaced per session in /api/stats.
struct ControllerTelemetry {
  /// Most recent delay signal consumed (RTT or drain), seconds; < 0 when
  /// none has been seen yet.
  double last_rtt_s = -1.0;
  /// Law-specific delay derivative: normalized RTT gradient (TIMELY) or
  /// trendline slope in delay-seconds per second (GCC). 0 for RMSA.
  double gradient = 0.0;
};

class CongestionController {
 public:
  virtual ~CongestionController() = default;

  /// Consume one delivery sample; returns the proposed minimum inter-frame
  /// interval in seconds, within the [min, max] bounds of the last reset().
  virtual double update(const CongestionSample& sample) = 0;

  /// Restart the law (new tier, upward probe): interval bounds and the
  /// starting point, clamped into [min, max].
  virtual void reset(double initial_interval_s, double min_interval_s,
                     double max_interval_s) = 0;

  /// Current interval proposal without consuming a sample.
  virtual double interval_s() const = 0;

  /// True when the law's interval proposal applies at every quality tier.
  /// False reproduces the legacy RMSA placement: the interval is stretched
  /// only once the session already sits on the cheapest tier.
  virtual bool paces_all_tiers() const { return false; }

  /// Gate for upward probes: delay-based laws veto a tier/rate probe while
  /// the network still shows rising delay.
  virtual bool probe_ok() const { return true; }

  virtual std::string name() const = 0;
  virtual ControllerTelemetry telemetry() const { return {}; }
};

enum class ControllerKind { kRmsa, kDelayGradient, kTrendline };

const char* controller_kind_name(ControllerKind kind);

struct ControllerConfig {
  ControllerKind kind = ControllerKind::kRmsa;

  /// Robbins-Monro gain template (Eq. 1, frame-rate domain).
  double rmsa_gain_a = 1.0;
  double rmsa_alpha = 0.8;

  /// Delay-gradient (TIMELY) law.
  double dg_ewma_alpha = 0.3;    ///< RTT-diff EWMA weight.
  double dg_t_low_s = 0.02;      ///< RTT below: additive increase always.
  double dg_t_high_s = 0.25;     ///< RTT above: level-based MD.
  double dg_beta = 0.8;          ///< multiplicative-decrease weight.
  double dg_addstep_fps = 0.5;   ///< additive increase step, frames/s.
  int dg_hai_after = 5;          ///< falling-RTT run length entering HAI.
  int dg_hai_factor = 5;         ///< HAI multiplier on the additive step.
  double dg_min_rtt_s = 1e-3;    ///< gradient normalization floor.
  /// Offered-rate ceiling as a multiple of the achieved rate. TIMELY's
  /// rate is an end-to-end pacing rate: offering far beyond what the path
  /// demonstrably delivers only feeds the queue, so additive increase is
  /// tethered to the measured drain rate plus this headroom.
  double dg_headroom = 1.15;
  /// Upward-probe gate: the queue counts as empty when the last RTT is
  /// within this factor of the minimum RTT seen (TIMELY's RTT-above-min
  /// is the queue-depth estimate).
  double dg_probe_rtt_factor = 1.5;

  /// Trendline (GCC-style) law.
  int tl_window = 20;                ///< regression window, samples.
  double tl_smoothing = 0.6;         ///< delay EWMA retention weight.
  double tl_slope_threshold = 0.02;  ///< overuse slope, delay-s per second.
  double tl_beta = 0.85;             ///< MD factor on overuse.
  double tl_addstep_fps = 0.5;       ///< additive increase step, frames/s.
  /// Offered-rate ceiling as a multiple of the achieved (incoming) rate —
  /// GCC caps the target bitrate relative to the incoming-rate estimate.
  double tl_headroom = 1.5;
};

/// The paper's Eq. 1 behind the pluggable interface. Wraps RmsaController
/// exactly the way web/session.hpp historically drove it: frame-rate
/// domain (window = 1, datagram_bytes = 1), the achieved rate as the
/// moving target g*, the offered rate as the measured goodput.
class RmsaPacingController final : public CongestionController {
 public:
  explicit RmsaPacingController(const ControllerConfig& config);

  double update(const CongestionSample& sample) override;
  void reset(double initial_interval_s, double min_interval_s,
             double max_interval_s) override;
  double interval_s() const override;
  std::string name() const override { return "rmsa"; }
  ControllerTelemetry telemetry() const override;

 private:
  ControllerConfig config_;
  std::unique_ptr<RmsaController> inner_;
  double last_rtt_s_ = -1.0;
};

/// TIMELY-style RTT-gradient controller over the session frame rate.
class DelayGradientController final : public CongestionController {
 public:
  explicit DelayGradientController(const ControllerConfig& config);

  double update(const CongestionSample& sample) override;
  void reset(double initial_interval_s, double min_interval_s,
             double max_interval_s) override;
  double interval_s() const override;
  bool paces_all_tiers() const override { return true; }
  bool probe_ok() const override;
  std::string name() const override { return "gradient"; }
  ControllerTelemetry telemetry() const override;

  /// Normalized RTT gradient after the last sample (unit-free).
  double gradient() const { return gradient_; }

 private:
  double clamp_rate(double rate_fps) const;

  ControllerConfig config_;
  double min_interval_s_ = 1e-3;
  double max_interval_s_ = 2.0;
  double rate_fps_ = 1.0;
  double prev_rtt_s_ = -1.0;
  double last_rtt_s_ = -1.0;
  double min_rtt_s_ = -1.0;
  double rtt_diff_ewma_s_ = 0.0;
  double gradient_ = 0.0;
  int negative_run_ = 0;
};

/// GCC-style trendline estimator: least-squares slope of the smoothed
/// delay series drives an overuse detector driving AIMD on the frame rate.
class TrendlineController final : public CongestionController {
 public:
  explicit TrendlineController(const ControllerConfig& config);

  double update(const CongestionSample& sample) override;
  void reset(double initial_interval_s, double min_interval_s,
             double max_interval_s) override;
  double interval_s() const override;
  bool paces_all_tiers() const override { return true; }
  bool probe_ok() const override { return !overusing_; }
  std::string name() const override { return "trendline"; }
  ControllerTelemetry telemetry() const override;

  /// Fitted delay slope after the last sample, delay-seconds per second.
  double slope() const { return slope_; }

 private:
  double clamp_rate(double rate_fps) const;

  ControllerConfig config_;
  double min_interval_s_ = 1e-3;
  double max_interval_s_ = 2.0;
  double rate_fps_ = 1.0;
  double smoothed_delay_s_ = -1.0;
  double last_rtt_s_ = -1.0;
  double slope_ = 0.0;
  bool overusing_ = false;
  std::deque<std::pair<double, double>> window_;  // (now_s, smoothed delay)
};

/// Build the configured controller. The returned controller still needs a
/// reset() with the session's interval bounds before the first update().
std::unique_ptr<CongestionController> make_controller(
    const ControllerConfig& config);

}  // namespace ricsa::transport
