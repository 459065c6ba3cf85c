// What-if explorer for the §IV-D cost model: how the monetary and energy
// cost of advertisement traffic changes with the data-plan price and the
// device battery, holding the paper's measured traffic volumes fixed.
//
// Usage: cost_report [adMBPerRun] [usdPerGB]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>

#include "core/cost.hpp"

using namespace libspector;

namespace {

/// `text` as a finite number >= 0 when it is nothing else.
std::optional<double> parseRate(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0)
    return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<double> adMbArg = 15.58;
  std::optional<double> usdPerGbArg = 10.0;
  if (argc > 1) adMbArg = parseRate(argv[1]);
  if (argc > 2) usdPerGbArg = parseRate(argv[2]);
  if (argc > 3 || !adMbArg || !usdPerGbArg) {
    std::fprintf(stderr, "usage: cost_report [adMBPerRun>=0] [usdPerGB>=0]\n");
    return 2;
  }
  const double adMb = *adMbArg;
  const double usdPerGb = *usdPerGbArg;
  const double bytesPerRun = adMb * 1024 * 1024;

  std::printf("Advertisement traffic: %.2f MB per 8-minute session\n", adMb);

  core::DataPlanModel plan;
  plan.usdPerGB = usdPerGb;
  const core::EnergyModel energy;
  const core::CostModel model(plan, energy, 8.0);
  const auto estimate = model.estimate(bytesPerRun);

  std::printf("\n== Money ==\n");
  std::printf("plan price:        $%.2f/GB\n", plan.usdPerGB);
  std::printf("hourly ad cost:    $%.2f\n", estimate.usdPerHour);
  std::printf("per 30 daily min:  $%.2f/month\n", estimate.usdPerHour * 0.5 * 30);

  std::printf("\n== Energy (Vallina et al. ad-library model) ==\n");
  std::printf("battery:           %.2f Wh (%.0f mAh @ %.2f V)\n", energy.batteryWh,
              energy.batteryMah, energy.batteryVoltage());
  std::printf("ad radio power:    %.3f W above idle\n", energy.adActivePowerWatts());
  std::printf("ad throughput:     %.0f B/s while active\n",
              energy.adThroughputBytesPerSec());
  std::printf("energy per byte:   %.2e J/B\n", energy.joulesPerByte());
  std::printf("session energy:    %.0f J (%.2f Wh)\n", estimate.energyJoules,
              estimate.energyJoules / 3600.0);
  std::printf("battery impact:    %.1f%% of a full charge\n",
              100.0 * estimate.batteryFraction);

  std::printf("\n== Sensitivity: $/hour across plan prices ==\n");
  for (const double price : {3.0, 5.0, 10.0, 15.0, 20.0}) {
    core::DataPlanModel p;
    p.usdPerGB = price;
    std::printf("  $%5.2f/GB -> $%.2f/hour\n", price,
                p.usdPerHour(bytesPerRun, 8.0));
  }

  std::printf("\n(paper reference: $1.17/hour and 18.7%% battery for 15.58 MB ads per run)\n");
  return 0;
}
