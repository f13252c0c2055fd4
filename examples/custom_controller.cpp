// Implementing your own game-streaming rate controller against the public
// RateController interface and racing it against the built-in systems.
//
// The example controller is a deliberately naive "half-the-rate-on-any-
// trouble" design; the point is the plumbing: plug a controller into a
// Scenario via controller_override and get the full measurement pipeline
// (fairness, response/recovery, RTT, fps) for free.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "cgstream.hpp"

namespace {

using cgs::Bandwidth;

/// AIMD-flavoured toy controller: halve on loss or >15 ms queuing delay,
/// add 0.25 Mb/s per clean second.
class HalvingController final : public cgs::stream::RateController {
 public:
  cgs::stream::ControlDecision on_feedback(
      const cgs::stream::FeedbackSnapshot& fb) override {
    if (!fb.valid) return current();
    const bool trouble =
        fb.loss_fraction > 0.01 ||
        fb.queuing_delay > std::chrono::milliseconds(15);
    if (trouble && fb.now >= hold_until_) {
      rate_ = std::max(rate_ * 0.5, Bandwidth::mbps(1.0));
      hold_until_ = fb.now + std::chrono::seconds(1);
    } else if (!trouble) {
      rate_ = std::min(rate_ + Bandwidth::kbps(25), Bandwidth::mbps(25.0));
    }
    return current();
  }

  [[nodiscard]] cgs::stream::ControlDecision current() const override {
    return {rate_, 60.0};
  }

  [[nodiscard]] std::string_view name() const override { return "halving"; }

 private:
  Bandwidth rate_ = Bandwidth::mbps(10.0);
  cgs::Time hold_until_ = cgs::kTimeZero;
};

}  // namespace

int main() {
  using cgs::tcp::CcAlgo;

  std::printf(
      "Custom controller vs the built-in system models (25 Mb/s, 2x BDP, "
      "3 runs)\n\n");

  cgs::core::TextTable table;
  table.set_header({"controller", "CC", "fairness", "game Mb/s",
                    "response s", "recovery s"});

  for (CcAlgo cc : {CcAlgo::kCubic, CcAlgo::kBbr}) {
    for (int variant = 0; variant < 4; ++variant) {
      cgs::core::Scenario sc;
      sc.capacity = cgs::Bandwidth::mbps(25.0);
      sc.queue_bdp_mult = 2.0;
      sc.tcp_algo = cc;
      const char* name;
      switch (variant) {
        case 0:
          sc.system = cgs::stream::GameSystem::kStadia;
          name = "stadia-like";
          break;
        case 1:
          sc.system = cgs::stream::GameSystem::kGeForce;
          name = "geforce-like";
          break;
        case 2:
          sc.system = cgs::stream::GameSystem::kLuna;
          name = "luna-like";
          break;
        default:
          sc.system = cgs::stream::GameSystem::kStadia;  // profile for FEC etc.
          sc.controller_override = [] {
            return std::make_unique<HalvingController>();
          };
          name = "halving (custom)";
      }
      cgs::core::SweepOptions opts;
      opts.runs = 3;
      const auto res = cgs::core::run_condition(sc, opts);
      char f[16], g[16], r1[16], r2[16];
      std::snprintf(f, sizeof f, "%+.2f", res.fairness_mean);
      std::snprintf(g, sizeof g, "%.1f", res.game_fair_mbps);
      std::snprintf(r1, sizeof r1, "%.0f%s", res.rr.response_s,
                    res.rr.responded ? "" : "*");
      std::snprintf(r2, sizeof r2, "%.0f%s", res.rr.recovery_s,
                    res.rr.recovered ? "" : "*");
      table.add_row({name, std::string(cgs::tcp::to_string(cc)), f, g, r1,
                     r2});
    }
  }
  std::printf("%s\n(* = never reached the band)\n", table.render().c_str());
  return 0;
}
