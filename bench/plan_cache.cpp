// Plan-cache and batching smoke bench (serving-workload path).
//
// For each configuration, measures:
//   * cold serve: plan compile + pack (first request of a layout);
//   * warm serve: plan-cache hit + pack (steady state of repeated traffic);
//   * batched serve: pack_batch of B requests vs B independent packs --
//     reporting the modeled PRS startup (message) counts, whose ratio is
//     the tau amortization the fused prefix-reduction-sum buys, and an
//     element-wise equality cross-check of every batched result.
//
// One JSON line per configuration on stdout (like threading_scaling); exits
// nonzero if any batched result diverges from its independent counterpart.
#include <chrono>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "plan/executor.hpp"
#include "plan/plan_cache.hpp"

namespace pup::bench {
namespace {

constexpr int kProcs = 16;
constexpr dist::index_t kLocal = 16384;
constexpr std::size_t kBatch = 8;

double wall_us(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int run() {
  std::cout << "# Plan cache + batching: P=" << kProcs << ", L=" << kLocal
            << "/rank, CMS scheme, B=" << kBatch << "\n\n";

  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;

  TextTable table("Cold vs warm serve and batched PRS startups");
  table.header({"density", "W0", "cold_us", "warm_us", "prs_msgs_indep",
                "prs_msgs_batch", "tau_ratio", "results"});

  bool all_match = true;
  std::ostringstream json;
  for (const Density& density :
       {Density{0.3, false}, Density{0.7, false}}) {
    const dist::index_t block = 64;
    Workload wl = make_workload({kLocal * kProcs}, {kProcs}, {block}, density);
    sim::Machine machine = make_paper_machine(kProcs);
    plan::PlanCache cache;

    // Cold serve: compile + execute.
    auto t0 = std::chrono::steady_clock::now();
    auto plan = cache.pack_plan(machine, wl.dist, sizeof(Element), opt);
    auto cold = plan::pack_with_plan(machine, *plan, wl.array, wl.mask);
    const double cold_us = wall_us(t0);

    // Warm serve: cache hit + execute.
    t0 = std::chrono::steady_clock::now();
    plan = cache.pack_plan(machine, wl.dist, sizeof(Element), opt);
    auto warm = plan::pack_with_plan(machine, *plan, wl.array, wl.mask);
    const double warm_us = wall_us(t0);
    bool match = warm.vector.gather() == cold.vector.gather();

    // Batched vs independent: B distinct masks over the same array.
    std::vector<dist::DistArray<mask_t>> masks;
    for (std::size_t b = 0; b < kBatch; ++b) {
      masks.push_back(dist::DistArray<mask_t>::scatter(
          wl.dist, make_mask(wl.dist.global(), density, 0xb000 + b)));
    }
    std::vector<const dist::DistArray<mask_t>*> mask_ptrs;
    for (const auto& m : masks) mask_ptrs.push_back(&m);
    const std::vector<const dist::DistArray<Element>*> arrays(kBatch,
                                                              &wl.array);
    sim::Machine indep = make_paper_machine(kProcs);
    std::vector<std::vector<Element>> expected;
    for (std::size_t b = 0; b < kBatch; ++b) {
      expected.push_back(pack(indep, wl.array, masks[b], opt).vector.gather());
    }
    const std::int64_t prs_indep =
        indep.trace().messages_in(sim::Category::kPrs);

    sim::Machine fused = make_paper_machine(kProcs);
    plan::PlanCache fused_cache;
    auto fplan = fused_cache.pack_plan(fused, wl.dist, sizeof(Element), opt);
    auto results =
        plan::pack_batch<Element>(fused, *fplan, mask_ptrs, arrays);
    const std::int64_t prs_batch =
        fused.trace().messages_in(sim::Category::kPrs);
    for (std::size_t b = 0; b < kBatch; ++b) {
      match = match && results[b].vector.gather() == expected[b];
    }
    all_match = all_match && match;

    const double ratio =
        prs_indep > 0 ? static_cast<double>(prs_batch) /
                            static_cast<double>(prs_indep)
                      : 0.0;
    char rbuf[32];
    std::snprintf(rbuf, sizeof(rbuf), "%.3f", ratio);
    table.row({density.label(), std::to_string(block),
               std::to_string(cold_us), std::to_string(warm_us),
               std::to_string(prs_indep), std::to_string(prs_batch),
               std::string(rbuf), match ? "match" : "MISMATCH"});

    json << JsonLine()
                .field("bench", "plan_cache")
                .field("p", kProcs)
                .field("local", kLocal)
                .field("density", density.value)
                .field("w0", block)
                .field("batch", kBatch)
                .field("cold_us", cold_us)
                .field("warm_us", warm_us)
                .field("cache_hits", cache.stats().hits)
                .field("cache_misses", cache.stats().misses)
                .field("prs_msgs_indep", prs_indep)
                .field("prs_msgs_batch", prs_batch)
                .field("tau_ratio", ratio)
                .field("results_match", match);
  }
  table.print(std::cout);
  std::cout << "\n" << json.str();

  if (!all_match) {
    std::cerr << "FATAL: batched results diverged from independent packs\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pup::bench

int main() { return pup::bench::run(); }
