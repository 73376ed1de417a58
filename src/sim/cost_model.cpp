#include "sim/cost_model.hpp"

namespace pup::sim {
namespace {

/// Assumed per-element local scan cost of a CM-5 node (33 MHz SPARC,
/// a few instructions plus a memory touch per element): ~0.3 us/element.
constexpr double kCm5LocalOpUs = 0.3;

/// One reading of the host's per-element mask-scan cost (a scan with a
/// data-dependent branch, like the ranking's initial-scan kernel), taken
/// on a 4-vCPU Intel Xeon.  Pinned so modeled time repeats bit for bit
/// from run to run and host to host.
constexpr double kPinnedHostLocalOpUs = 0.00028350877761840822;

}  // namespace

CostModel CostModel::cm5() {
  return CostModel{/*tau_us=*/86.0, /*mu_us_per_byte=*/0.12,
                   /*delta_us=*/kCm5LocalOpUs};
}

CostModel CostModel::modern_cluster() {
  return CostModel{/*tau_us=*/2.0, /*mu_us_per_byte=*/1e-4,
                   /*delta_us=*/0.001};
}

CostModel CostModel::calibrated_cm5() {
  CostModel m = cm5();
  const double scale = kPinnedHostLocalOpUs / kCm5LocalOpUs;
  m.tau_us *= scale;
  m.mu_us_per_byte *= scale;
  m.delta_us = kPinnedHostLocalOpUs;
  return m;
}

}  // namespace pup::sim
