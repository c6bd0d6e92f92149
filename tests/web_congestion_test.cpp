// Pluggable congestion-controller tests:
//  * RMSA parity — RmsaPacingController behind the CongestionController
//    interface reproduces the raw RmsaController's sleep sequence
//    sample-for-sample (the refactor seam must be bit-identical)
//  * DelayGradientController on synthetic RTT series: additive increase
//    below T_low, gradient-weighted MD on a ramp, level MD above T_high,
//    HAI after a falling run, the achieved-rate tether, loss handling,
//    and the queue-empty probe gate (including min-RTT survival across
//    reset, which tier changes rely on)
//  * TrendlineController on synthetic delay series: overuse MD against
//    the incoming-rate estimate, one MD per excursion, hold on drain,
//    additive increase with the incoming-rate ceiling
//  * controller name parsing and the `client=` id sanitizer that keys the
//    session table.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "transport/congestion_controller.hpp"
#include "transport/rate_controller.hpp"
#include "web/session.hpp"

namespace t = ricsa::transport;
namespace w = ricsa::web;

namespace {

constexpr double kCadence = 0.05;  // 20 fps
constexpr double kMaxInterval = 1.0;

t::CongestionSample sample(double now_s, double offered_fps,
                           double achieved_fps, double rtt_s,
                           bool loss = false) {
  t::CongestionSample s;
  s.now_s = now_s;
  s.offered_fps = offered_fps;
  s.achieved_fps = achieved_fps;
  s.rtt_s = rtt_s;
  s.loss = loss;
  return s;
}

// ------------------------------------------------------------- RMSA parity

// The exact trace the pacing layer produces: offered/achieved frame rates
// with occasional losses, covering convergence, overshoot, and recovery.
struct TraceStep {
  double offered_fps;
  double achieved_fps;
  bool loss;
};

std::vector<TraceStep> recorded_trace() {
  std::vector<TraceStep> trace;
  for (int i = 0; i < 10; ++i) trace.push_back({20.0, 20.0, false});
  for (int i = 0; i < 15; ++i) trace.push_back({20.0, 6.0 + 0.3 * i, false});
  trace.push_back({12.0, 5.0, true});
  for (int i = 0; i < 20; ++i) trace.push_back({10.0, 9.5, false});
  trace.push_back({10.0, 2.0, true});
  for (int i = 0; i < 10; ++i) trace.push_back({5.0, 4.9, false});
  return trace;
}

TEST(RmsaParity, InterfaceReproducesRawControllerSleepForSleep) {
  t::ControllerConfig config;
  t::RmsaPacingController wrapped(config);
  wrapped.reset(kCadence, kCadence, kMaxInterval);

  // The raw controller exactly as web/session.hpp historically drove it:
  // frame-rate domain, one frame per burst, achieved rate as the target.
  t::RmsaConfig raw_config;
  raw_config.gain_a = config.rmsa_gain_a;
  raw_config.alpha = config.rmsa_alpha;
  raw_config.window = 1;
  raw_config.datagram_bytes = 1;
  raw_config.initial_sleep_s = kCadence;
  raw_config.min_sleep_s = kCadence;
  raw_config.max_sleep_s = kMaxInterval;
  t::RmsaController raw(raw_config);

  double now = 0.0;
  for (const TraceStep& step : recorded_trace()) {
    now += kCadence;
    raw.set_target(step.achieved_fps);
    const double raw_sleep =
        raw.update(t::RateFeedback{step.offered_fps, step.loss});
    const double wrapped_sleep = wrapped.update(
        sample(now, step.offered_fps, step.achieved_fps, 0.08, step.loss));
    ASSERT_DOUBLE_EQ(raw_sleep, wrapped_sleep);
    ASSERT_DOUBLE_EQ(raw.sleep_time(), wrapped.interval_s());
  }
}

TEST(RmsaParity, ResetRestartsTheGainScheduleIdentically) {
  t::ControllerConfig config;
  t::RmsaPacingController wrapped(config);
  wrapped.reset(kCadence, kCadence, kMaxInterval);
  for (int i = 0; i < 7; ++i) {
    wrapped.update(sample(i * kCadence, 20.0, 5.0, 0.1));
  }
  wrapped.reset(0.2, kCadence, kMaxInterval);

  t::RmsaConfig raw_config;
  raw_config.gain_a = config.rmsa_gain_a;
  raw_config.alpha = config.rmsa_alpha;
  raw_config.window = 1;
  raw_config.datagram_bytes = 1;
  raw_config.initial_sleep_s = 0.2;
  raw_config.min_sleep_s = kCadence;
  raw_config.max_sleep_s = kMaxInterval;
  t::RmsaController raw(raw_config);

  for (int i = 0; i < 12; ++i) {
    raw.set_target(8.0);
    const double raw_sleep = raw.update(t::RateFeedback{10.0, false});
    const double wrapped_sleep =
        wrapped.update(sample(1.0 + i * kCadence, 10.0, 8.0, 0.1));
    ASSERT_DOUBLE_EQ(raw_sleep, wrapped_sleep);
  }
}

TEST(RmsaParity, LegacyPlacementFlagsMatchTheHardWiredBehavior) {
  t::ControllerConfig config;
  t::RmsaPacingController rmsa(config);
  // The hard-wired controller stretched the interval only on the cheapest
  // tier and never vetoed a probe; the wrapped one must report the same.
  EXPECT_FALSE(rmsa.paces_all_tiers());
  EXPECT_TRUE(rmsa.probe_ok());
  EXPECT_EQ(rmsa.name(), "rmsa");
}

// --------------------------------------------------- delay gradient (TIMELY)

t::DelayGradientController gradient_controller(t::ControllerConfig config =
                                                   t::ControllerConfig{}) {
  config.kind = t::ControllerKind::kDelayGradient;
  t::DelayGradientController c(config);
  c.reset(kCadence, kCadence, kMaxInterval);
  return c;
}

TEST(DelayGradient, LowRttRampsAdditively) {
  auto c = gradient_controller();
  // RTT pinned under T_low: AI every sample regardless of gradient sign.
  // Start from a stretched interval so there is room to ramp.
  c.reset(0.5, kCadence, kMaxInterval);
  c.update(sample(0.0, 2.0, 50.0, 0.01));  // prime prev_rtt
  double prev_rate = 1.0 / c.interval_s();
  for (int i = 1; i <= 6; ++i) {
    c.update(sample(i * kCadence, 2.0, 50.0, 0.01));
    const double rate = 1.0 / c.interval_s();
    EXPECT_NEAR(rate, prev_rate + 0.5, 1e-9);
    prev_rate = rate;
  }
}

TEST(DelayGradient, RisingRttRampTriggersGradientWeightedDecrease) {
  auto c = gradient_controller();
  // Ramp inside the guard band (T_low .. T_high): only the gradient can
  // see it. Achieved stays high so the tether never binds.
  double rtt = 0.05;
  c.update(sample(0.0, 20.0, 50.0, rtt));  // prime prev_rtt
  double prev_rate = 1.0 / c.interval_s();
  for (int i = 1; i <= 8; ++i) {
    rtt += 0.015;
    c.update(sample(i * kCadence, 20.0, 50.0, rtt));
  }
  EXPECT_GT(c.gradient(), 0.0);
  EXPECT_LT(1.0 / c.interval_s(), prev_rate);
  EXPECT_FALSE(c.probe_ok());
}

TEST(DelayGradient, RttAboveHighBandDecreasesEvenWhileFalling) {
  auto c = gradient_controller();
  // Falling series, but the level sits above T_high: the level emergency
  // must win over the falling gradient.
  c.update(sample(0.0, 20.0, 50.0, 0.6));
  const double before = 1.0 / c.interval_s();
  c.update(sample(kCadence, 20.0, 50.0, 0.5));
  EXPECT_LT(1.0 / c.interval_s(), before);
}

TEST(DelayGradient, HyperactiveIncreaseAfterFallingRun) {
  t::ControllerConfig config;
  auto c = gradient_controller(config);
  c.reset(0.5, kCadence, kMaxInterval);
  // A long falling run inside the band: the first dg_hai_after samples use
  // the plain step, afterwards the HAI-multiplied step.
  double rtt = 0.2;
  c.update(sample(0.0, 2.0, 50.0, rtt));  // prime
  std::vector<double> steps;
  double prev_rate = 1.0 / c.interval_s();
  for (int i = 1; i <= config.dg_hai_after + 2; ++i) {
    rtt -= 0.005;
    c.update(sample(i * kCadence, 2.0, 50.0, rtt));
    const double rate = 1.0 / c.interval_s();
    steps.push_back(rate - prev_rate);
    prev_rate = rate;
  }
  EXPECT_NEAR(steps.front(), config.dg_addstep_fps, 1e-9);
  EXPECT_NEAR(steps.back(), config.dg_addstep_fps * config.dg_hai_factor,
              1e-9);
}

TEST(DelayGradient, RateIsTetheredToTheAchievedRate) {
  t::ControllerConfig config;
  auto c = gradient_controller(config);
  // Flat low RTT wants AI back to the cadence rate, but the client only
  // drains 4 fps: the rate must stop at achieved * headroom.
  for (int i = 0; i < 200; ++i) {
    c.update(sample(i * kCadence, 20.0, 4.0, 0.01));
  }
  EXPECT_NEAR(1.0 / c.interval_s(), 4.0 * config.dg_headroom, 1e-9);
}

TEST(DelayGradient, LossIsAFullWeightDecrease) {
  auto c = gradient_controller();
  const double before = 1.0 / c.interval_s();
  c.update(sample(0.0, 20.0, 50.0, 0.05, /*loss=*/true));
  EXPECT_LT(1.0 / c.interval_s(), before);
}

TEST(DelayGradient, ProbeGateRequiresAnEmptyQueue) {
  t::ControllerConfig config;
  auto c = gradient_controller(config);
  // Learn the path minimum, then hold a flat elevated RTT: the gradient is
  // ~0 (flat) but the standing queue keeps last_rtt far above min — the
  // probe must stay vetoed until the RTT returns to the minimum.
  c.update(sample(0.0, 20.0, 50.0, 0.06));
  for (int i = 1; i <= 20; ++i) {
    c.update(sample(i * kCadence, 20.0, 50.0, 0.15));
  }
  EXPECT_FALSE(c.probe_ok());
  for (int i = 21; i <= 40; ++i) {
    c.update(sample(i * kCadence, 20.0, 50.0, 0.06));
  }
  EXPECT_TRUE(c.probe_ok());
}

TEST(DelayGradient, MinRttSurvivesResetSoTheProbeGateStaysArmed) {
  auto c = gradient_controller();
  c.update(sample(0.0, 20.0, 50.0, 0.06));  // path minimum learned
  c.reset(kCadence, kCadence, kMaxInterval);  // tier change
  // Post-reset samples arrive at a congested level. If reset had dropped
  // the learned minimum, 0.15 would *become* the minimum and the queue
  // would look empty.
  for (int i = 0; i < 10; ++i) {
    c.update(sample(1.0 + i * kCadence, 20.0, 50.0, 0.15));
  }
  EXPECT_FALSE(c.probe_ok());
}

// ------------------------------------------------------------ trendline (GCC)

t::TrendlineController trendline_controller(t::ControllerConfig config =
                                                t::ControllerConfig{}) {
  config.kind = t::ControllerKind::kTrendline;
  t::TrendlineController c(config);
  c.reset(kCadence, kCadence, kMaxInterval);
  return c;
}

TEST(Trendline, RampTriggersOveruseAgainstTheIncomingRate) {
  t::ControllerConfig config;
  auto c = trendline_controller(config);
  double delay = 0.05;
  int i = 0;
  while (c.probe_ok() && i < 50) {
    delay += 0.02;
    c.update(sample(++i * kCadence, 20.0, 8.0, delay));
  }
  ASSERT_FALSE(c.probe_ok()) << "ramp never tripped the overuse detector";
  // The decrease invalidated the fitted trend along with the window.
  EXPECT_DOUBLE_EQ(c.slope(), 0.0);
  // The decrease lands at beta * incoming (8 fps), not beta * target.
  EXPECT_NEAR(1.0 / c.interval_s(), config.tl_beta * 8.0, 1e-9);
}

TEST(Trendline, OneExcursionCostsOneDecrease) {
  t::ControllerConfig config;
  auto c = trendline_controller(config);
  double delay = 0.05;
  int i = 0;
  while (c.probe_ok() && i < 50) {
    delay += 0.02;
    c.update(sample(++i * kCadence, 20.0, 8.0, delay));
  }
  ASSERT_FALSE(c.probe_ok());
  const double after_md = 1.0 / c.interval_s();
  // The regression window was invalidated: the next two samples cannot
  // re-fit a slope, so the rate must not take a second decrease.
  c.update(sample(++i * kCadence, 20.0, 8.0, delay + 0.02));
  c.update(sample(++i * kCadence, 20.0, 8.0, delay + 0.04));
  EXPECT_GE(1.0 / c.interval_s(), after_md);
}

TEST(Trendline, DrainingQueueHoldsTheRate) {
  auto c = trendline_controller();
  c.reset(0.2, kCadence, kMaxInterval);
  // Steeply falling delay: underuse. The regression needs three samples
  // before a slope exists; from then on the law holds — neither AI nor MD.
  double delay = 0.5;
  for (int i = 0; i < 3; ++i) {
    delay -= 0.03;
    c.update(sample(i * kCadence, 5.0, 50.0, delay));
  }
  const double before = 1.0 / c.interval_s();
  for (int i = 3; i < 12; ++i) {
    delay -= 0.03;
    c.update(sample(i * kCadence, 5.0, 50.0, delay));
  }
  EXPECT_DOUBLE_EQ(1.0 / c.interval_s(), before);
}

TEST(Trendline, FlatDelayRampsAdditivelyUnderTheIncomingCeiling) {
  t::ControllerConfig config;
  auto c = trendline_controller(config);
  c.reset(0.5, kCadence, kMaxInterval);
  // Flat delay = AI every sample, but never past achieved * headroom.
  for (int i = 0; i < 200; ++i) {
    c.update(sample(i * kCadence, 2.0, 6.0, 0.08));
  }
  EXPECT_NEAR(1.0 / c.interval_s(), 6.0 * config.tl_headroom, 1e-9);
}

// --------------------------------------------------------- law names & ids

TEST(ControllerKnob, NamesEveryLaw) {
  // /api/stats and the fan-out bench report each law by these names.
  EXPECT_STREQ(t::controller_kind_name(t::ControllerKind::kRmsa), "rmsa");
  EXPECT_STREQ(t::controller_kind_name(t::ControllerKind::kDelayGradient),
               "gradient");
  EXPECT_STREQ(t::controller_kind_name(t::ControllerKind::kTrendline),
               "trendline");
}

TEST(ClientId, SanitizerAcceptsTokenCharactersOnly) {
  EXPECT_EQ(w::sanitize_client_id("tab-7_b.2-X"), "tab-7_b.2-X");
  // Anything outside [A-Za-z0-9._-], the empty id, and oversized ids all
  // collapse to "" (anonymous: no session is keyed).
  EXPECT_EQ(w::sanitize_client_id(""), "");
  EXPECT_EQ(w::sanitize_client_id("a b"), "");
  EXPECT_EQ(w::sanitize_client_id("x/../y"), "");
  EXPECT_EQ(w::sanitize_client_id("id\"</script>"), "");
  EXPECT_EQ(w::sanitize_client_id("a\r\nSet-Cookie:x"), "");
  EXPECT_EQ(w::sanitize_client_id(std::string(65, 'a')), "");
  EXPECT_EQ(w::sanitize_client_id(std::string(64, 'a')), std::string(64, 'a'));
}

}  // namespace
