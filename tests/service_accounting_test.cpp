// Property test: TenantStats and the global byte budget balance *exactly*
// across randomized mixed PACK / UNPACK admit / reject / shed / cancel /
// complete sequences, including recovery re-execution and queued-at-
// shutdown disposal.  For every seeded scenario:
//
//   admitted == completed + failed + shed + cancelled + deadline_misses
//               + watchdog_trips                      (terminal exclusivity)
//   submitted == admitted + rejected                  (admission totality)
//   bytes_in_flight == 0 at quiescence               (budget unwind)
//   every global bucket == the sum of its per-tenant buckets
//   completed == cache_hits + cache_misses == fused + singleton (per tenant)
//   the responses' status tally == the buckets: kOk == completed,
//   kRejected == rejected + shed, and one bucket per other status
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "service/server.hpp"
#include "sim/fault.hpp"
#include "support/rng.hpp"

namespace pup {
namespace {

using service::Element;
using service::PackRequest;
using service::Response;
using service::Server;
using service::ServerStats;
using service::Status;
using service::TenantStats;
using service::UnpackRequest;

constexpr int kProcs = 4;
constexpr dist::index_t kN = 1024;
const char* const kTenants[2] = {"a", "b"};

dist::Distribution layout() {
  return dist::Distribution::block_cyclic(dist::Shape({kN}),
                                          dist::ProcessGrid({kProcs}), 16);
}

dist::DistArray<Element> make_array(const dist::Distribution& d) {
  std::vector<Element> data(static_cast<std::size_t>(d.global().size()));
  std::iota(data.begin(), data.end(), 1);
  return dist::DistArray<Element>::scatter(d, data);
}

void check_balance(const ServerStats& g, const TenantStats& a,
                   const TenantStats& b, std::map<Status, std::int64_t> tally,
                   const std::string& label) {
  EXPECT_EQ(g.admitted, g.completed + g.failed + g.shed + g.cancelled +
                            g.deadline_misses + g.watchdog_trips)
      << label;
  EXPECT_EQ(g.submitted, g.admitted + g.rejected) << label;
  EXPECT_EQ(g.bytes_in_flight, 0u) << label;
  for (const TenantStats* t : {&a, &b}) {
    EXPECT_EQ(t->admitted, t->completed + t->failed + t->shed +
                               t->cancelled + t->deadline_misses +
                               t->watchdog_trips)
        << label;
    EXPECT_EQ(t->submitted, t->admitted + t->rejected_quota +
                                t->rejected_bytes + t->rejected_other)
        << label;
    EXPECT_EQ(t->completed, t->cache_hits + t->cache_misses) << label;
    EXPECT_EQ(t->completed, t->fused + t->singleton) << label;
  }
  // Only registered tenants submit in this test, so every global bucket is
  // exactly the sum of the per-tenant buckets.
  EXPECT_EQ(g.submitted, a.submitted + b.submitted) << label;
  EXPECT_EQ(g.admitted, a.admitted + b.admitted) << label;
  EXPECT_EQ(g.completed, a.completed + b.completed) << label;
  EXPECT_EQ(g.failed, a.failed + b.failed) << label;
  EXPECT_EQ(g.shed, a.shed + b.shed) << label;
  EXPECT_EQ(g.cancelled, a.cancelled + b.cancelled) << label;
  EXPECT_EQ(g.deadline_misses, a.deadline_misses + b.deadline_misses)
      << label;
  EXPECT_EQ(g.watchdog_trips, a.watchdog_trips + b.watchdog_trips) << label;
  EXPECT_EQ(g.rejected, a.rejected_quota + a.rejected_bytes +
                            a.rejected_other + b.rejected_quota +
                            b.rejected_bytes + b.rejected_other)
      << label;
  EXPECT_EQ(g.fused_requests, a.fused + b.fused) << label;
  // What the clients saw agrees with the books.
  EXPECT_EQ(tally[Status::kOk], g.completed) << label;
  EXPECT_EQ(tally[Status::kRejected], g.rejected + g.shed) << label;
  EXPECT_EQ(tally[Status::kFailed], g.failed) << label;
  EXPECT_EQ(tally[Status::kCancelled], g.cancelled) << label;
  EXPECT_EQ(tally[Status::kDeadlineExceeded], g.deadline_misses) << label;
  EXPECT_EQ(tally[Status::kWatchdogTimeout], g.watchdog_trips) << label;
}

/// One randomized scenario.  `drain_first` selects the quiescence path:
/// drain-then-shutdown (everything executes) vs. shutdown-while-queued
/// (the queue is dropped as shed) -- the balance must hold either way.
void run_scenario(std::uint64_t seed, bool drain_first) {
  Xoshiro256 rng(seed);
  const auto d = layout();
  Server::Options opt;
  opt.nprocs = kProcs;
  opt.cost = sim::CostModel{10.0, 0.1, 0.01};
  opt.start_paused = true;
  opt.window_us = rng.next_below(2) == 0 ? 0.0 : 300.0;
  opt.max_batch = 1 + rng.next_below(4);
  opt.cancellation = true;
  // Small quotas and a tight budget force real admission rejections.
  opt.tenant_inflight_quota = 3 + rng.next_below(8);
  const std::size_t per_request =
      static_cast<std::size_t>(d.global().size()) *
      (sizeof(mask_t) + sizeof(Element));
  opt.byte_budget = per_request * (4 + rng.next_below(8));
  if (rng.next_below(2) == 0) {
    opt.overload_factor =
        6.0 * static_cast<double>(per_request) /
        static_cast<double>(opt.byte_budget);
  }
  const bool faulted = rng.next_below(2) == 0;
  if (faulted) opt.recovery.max_restarts = 3;

  Server server(opt);
  for (const char* t : kTenants) {
    server.register_tenant(t);
    server.register_array(t, "x", make_array(d));
  }
  if (faulted) {
    // A fail-stop kill mid-PRS: recovery rolls back and re-executes, and
    // the re-execution must not double-count any terminal bucket.
    server.machine().set_fault_plan(sim::FaultPlan::parse(
        "seed=" + std::to_string(1 + rng.next_below(100)) +
        " kill=1 after=9 phase=prs"));
  }

  const int requests = 12 + static_cast<int>(rng.next_below(10));
  std::vector<Server::Submission> subs;
  subs.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const char* tenant = kTenants[rng.next_below(2)];
    auto mask = dist::DistArray<mask_t>::scatter(
        d, random_mask(kN, 0.2 + 0.6 * rng.next_double(),
                       seed ^ (31ULL * i)));
    const auto roll = rng.next_below(100);
    double deadline_us = 0.0;
    if (roll < 20) {
      deadline_us = 1.0;  // certain miss while the scheduler is paused
    } else if (roll < 35) {
      deadline_us = 60e6;
    }
    if (rng.next_below(100) < 30) {
      UnpackRequest r;
      r.tenant = tenant;
      r.field = "x";
      r.mask = std::move(mask);
      r.vector = make_array(dist::Distribution::block1d(kN, kProcs));
      r.deadline_us = deadline_us;
      subs.push_back(server.submit_tracked(std::move(r)));
    } else {
      PackRequest r;
      r.tenant = tenant;
      r.array = "x";
      r.mask = std::move(mask);
      r.deadline_us = deadline_us;
      subs.push_back(server.submit_tracked(std::move(r)));
    }
  }
  // Cancel a random subset (queued, rejected-already, and repeats: every
  // combination must keep the books exact).
  for (auto& s : subs) {
    if (rng.next_below(100) < 25) {
      server.cancel(s.id);
      if (rng.next_below(4) == 0) server.cancel(s.id);  // double-cancel
    }
  }

  if (drain_first) {
    server.resume();
    server.drain();
    server.shutdown();
  } else {
    // Tear down with the queue still staged: everything queued must
    // resolve Rejected{kShutdown} and be counted as shed.
    server.shutdown();
  }
  std::map<Status, std::int64_t> tally;
  for (auto& s : subs) {
    ASSERT_EQ(s.response.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "seed " << seed << ": a future leaked";
    // Typed; the outcome itself is free to vary by seed.
    ++tally[s.response.get().status];
  }
  check_balance(server.stats(), server.tenant_stats("a"),
                server.tenant_stats("b"), std::move(tally),
                "seed " + std::to_string(seed) +
                    (drain_first ? " drained" : " dropped"));
}

TEST(ServiceAccounting, BalancesAcrossRandomMixedSequencesDrained) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_scenario(seed, /*drain_first=*/true);
  }
}

TEST(ServiceAccounting, BalancesAcrossRandomMixedSequencesDroppedAtShutdown) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_scenario(seed, /*drain_first=*/false);
  }
}

}  // namespace
}  // namespace pup
