// Multi-tenant service throughput / tail-latency bench.
//
// Replays one seeded open-loop Poisson arrival process -- mixed tenants,
// two array shapes, mixed mask densities -- against a service::Server, for
// every (backend, batching window) combination:
//
//   backend in {sim, threads}   (Options::backend injection, so one run
//                                covers both regardless of PUP_BACKEND)
//   window  in {0, kWindowUs}   (0 = FIFO singletons, the fusion baseline)
//
// Open loop means arrival times come from the trace, not from completions:
// the submitting thread sleeps until each request's arrival stamp and never
// waits for responses, so a backlog forms exactly as it would behind a
// bursty client fleet, and the batching window can absorb it.  Per
// configuration the bench prints one JSON line with throughput (ops/s),
// wall-clock latency percentiles (p50/p95/p99), the batch-fusion rate, the
// shared-plan-cache hit rate, the modeled PRS startup count, and the
// shed / deadline-miss rates.
//
// Two additional measurements cover the robustness layer:
//
//   overload  -- the same trace replayed at 2x admission pressure (arrival
//                stamps halved) with per-tenant priorities, per-request
//                deadlines, and a tight pressure threshold, reporting the
//                shed rate, deadline-miss rate, and p99 under load.
//   zero-overhead proof -- a pre-staged (deterministic-fusion) replay of
//                the plain, nothing-configured server against one with
//                cancellation + watchdog + brown-out + overload armed but
//                idle and a far-future deadline on every request: digests
//                must be bit-identical and modeled PRS startup counts
//                exactly equal, proving the deadline/priority/watchdog
//                machinery charges nothing when it does not trip (the
//                plain configuration takes the identical code path as the
//                pre-robustness baseline).
//
// Exits nonzero unless (a) every request's result digest is bit-identical
// across all plain configurations -- fusion and backend choice must never
// change results -- (b) on each backend the windowed run charges fewer
// modeled PRS startups than window=0 (the tau amortization a B>=4 fusable
// workload must show), (c) the zero-overhead proof holds on both backends,
// and (d) overload-run accounting balances exactly.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "service/server.hpp"

namespace pup::bench {
namespace {

constexpr int kProcs = 8;
constexpr dist::index_t kN = 4096 * 8;
constexpr int kRequests = 48;
constexpr double kMeanArrivalUs = 100.0;  // open-loop Poisson rate
constexpr double kWindowUs = 1500.0;
constexpr std::size_t kMaxBatch = 8;
constexpr std::uint64_t kSeed = 0x5eed;
// Overload-mode per-request deadline: roughly the plain run's p50, so
// under 2x pressure the front of the backlog completes and the tail
// misses -- both columns stay populated.
constexpr double kOverloadDeadlineUs = 45'000.0;

using Clock = std::chrono::steady_clock;

/// One request of the pre-generated trace, identical for every
/// configuration: which tenant hits which array with which mask, and when.
struct TraceRequest {
  std::string tenant;
  std::string array;
  std::size_t mask_index = 0;
  double arrival_us = 0.0;
};

struct TraceSpec {
  std::vector<dist::Distribution> dists;          // shape per array name
  std::vector<dist::DistArray<mask_t>> masks;     // mask per request
  std::vector<std::size_t> mask_dist;             // dist index per request
  std::vector<TraceRequest> requests;
};

/// Seeded trace: three tenants share array "x" on one layout (the fusable
/// bulk, so windows have B>=4 to harvest) and tenant "c" also owns "y" on
/// a second layout (traffic that can never fuse with "x").
TraceSpec make_trace() {
  TraceSpec t;
  t.dists.push_back(dist::Distribution::block_cyclic(
      dist::Shape({kN}), dist::ProcessGrid({kProcs}), 32));
  t.dists.push_back(dist::Distribution::block_cyclic(
      dist::Shape({kN}), dist::ProcessGrid({kProcs}), 64));

  std::mt19937_64 rng(kSeed);
  std::exponential_distribution<double> interarrival(1.0 / kMeanArrivalUs);
  std::uniform_int_distribution<int> pick_tenant(0, 2);
  std::uniform_real_distribution<double> pick_density(0.1, 0.9);
  std::uniform_real_distribution<double> pick_kind(0.0, 1.0);

  double now_us = 0.0;
  for (int i = 0; i < kRequests; ++i) {
    now_us += interarrival(rng);
    TraceRequest r;
    r.arrival_us = now_us;
    const char* tenants[] = {"a", "b", "c"};
    r.tenant = tenants[pick_tenant(rng)];
    // 1 in 6 requests is tenant c's unfusable second shape.
    const bool second_shape = r.tenant == "c" && pick_kind(rng) < 0.5;
    r.array = second_shape ? "y" : "x";
    const std::size_t di = second_shape ? 1 : 0;
    r.mask_index = t.masks.size();
    t.masks.push_back(dist::DistArray<mask_t>::scatter(
        t.dists[di],
        random_mask(kN, pick_density(rng), kSeed + 1000ULL + i)));
    t.mask_dist.push_back(di);
    t.requests.push_back(std::move(r));
  }
  return t;
}

/// Which server configuration / arrival process a replay uses.
struct ReplayOpts {
  std::string backend;
  double window_us = kWindowUs;
  double pressure = 1.0;  ///< arrival stamps divided by this (2 = 2x rate)
  bool staged = false;    ///< pre-stage the whole queue (no sleeps): makes
                          ///< batch fusion deterministic for exact-count
                          ///< comparisons
  bool armed = false;     ///< cancellation/watchdog/brown-out/overload all
                          ///< configured but sized to never trip, plus a
                          ///< far-future deadline per request
  bool overload = false;  ///< tight pressure threshold, priorities, and
                          ///< short deadlines: the shedding measurement
};

struct RunResult {
  std::vector<std::uint64_t> digests;  // per request, submission order
  std::int64_t prs_msgs = 0;
  std::int64_t batches = 0;
  std::int64_t fused = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t shed = 0;
  std::int64_t deadline_misses = 0;
  bool balanced = true;
  double wall_us = 0.0;
  double hit_rate = 0.0;
  std::vector<double> latencies_us;
};

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

RunResult replay(const TraceSpec& trace, const ReplayOpts& ro) {
  service::Server::Options opt;
  opt.nprocs = kProcs;
  opt.cost = sim::CostModel::calibrated_cm5();
  opt.window_us = ro.window_us;
  opt.max_batch = kMaxBatch;
  opt.backend = ro.backend;
  opt.start_paused = ro.staged;
  // The plain bench measures scheduling, not admission: size the quotas so
  // the whole open-loop backlog is admissible and every digest exists.
  opt.tenant_inflight_quota = kRequests;
  opt.byte_budget = std::size_t{1} << 40;
  const double per_request_bytes = static_cast<double>(kN) *
                                   (sizeof(mask_t) + sizeof(service::Element));
  if (ro.armed) {
    // Everything configured, nothing sized to trip: the zero-overhead
    // counterpart to the plain run.
    opt.cancellation = true;
    opt.watchdog_factor = 1e6;
    opt.brownout_p95_us = 1e12;
    opt.overload_factor = 1e12;
  }
  if (ro.overload) {
    // Shedding engages once the backlog holds more than ~half the trace
    // (pressure = queue depth x queued bytes vs. factor x budget).
    const double keep = 0.5 * static_cast<double>(kRequests);
    opt.overload_factor = keep * keep * per_request_bytes /
                          static_cast<double>(opt.byte_budget);
  }
  service::Server server(opt);

  using service::Priority;
  const Priority prio[3] = {Priority::kCritical, Priority::kStandard,
                            Priority::kBestEffort};
  int ti = 0;
  for (const char* tenant : {"a", "b", "c"}) {
    // Priority classes only differentiate the overload run; elsewhere every
    // tenant is standard so shedding order never enters the picture.
    server.register_tenant(tenant, std::nullopt,
                           ro.overload ? prio[ti] : Priority::kStandard);
    ++ti;
  }
  for (const char* tenant : {"a", "b", "c"}) {
    std::vector<service::Element> data(static_cast<std::size_t>(kN));
    std::iota(data.begin(), data.end(), 1);
    server.register_array(
        tenant, "x",
        dist::DistArray<service::Element>::scatter(trace.dists[0], data));
  }
  {
    std::vector<service::Element> data(static_cast<std::size_t>(kN));
    std::iota(data.begin(), data.end(), 1000000);
    server.register_array(
        "c", "y",
        dist::DistArray<service::Element>::scatter(trace.dists[1], data));
  }

  std::vector<std::future<service::Response>> futures;
  futures.reserve(trace.requests.size());
  const auto start = Clock::now();
  for (const TraceRequest& r : trace.requests) {
    if (!ro.staged) {
      // Open loop: wait out the arrival stamp, submit, never block on the
      // response.
      std::this_thread::sleep_until(
          start +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::micro>(r.arrival_us /
                                                        ro.pressure)));
    }
    service::PackRequest req;
    req.tenant = r.tenant;
    req.array = r.array;
    req.mask = trace.masks[r.mask_index];
    if (ro.armed) req.deadline_us = 60e6;  // a minute out: never missed
    if (ro.overload) req.deadline_us = kOverloadDeadlineUs;
    futures.push_back(server.submit(std::move(req)));
  }
  if (ro.staged) server.resume();
  server.drain();
  const double wall_us = std::chrono::duration<double, std::micro>(
                             Clock::now() - start)
                             .count();

  RunResult out;
  out.wall_us = wall_us;
  for (auto& f : futures) {
    const service::Response resp = f.get();
    if (resp.status == service::Status::kOk) {
      ++out.completed;
      out.digests.push_back(resp.digest);
      out.latencies_us.push_back(resp.latency_us);
      if (resp.fused) ++out.fused;
    } else {
      ++out.rejected;
      out.digests.push_back(0);
    }
  }
  out.prs_msgs = server.machine().trace().messages_in(sim::Category::kPrs);
  const auto stats = server.stats();
  out.batches = stats.batches;
  out.shed = stats.shed;
  out.deadline_misses = stats.deadline_misses;
  out.balanced =
      stats.admitted == stats.completed + stats.failed + stats.shed +
                            stats.cancelled + stats.deadline_misses +
                            stats.watchdog_trips &&
      stats.submitted == stats.admitted + stats.rejected &&
      stats.bytes_in_flight == 0;
  const auto cache = server.plan_cache().stats();
  out.hit_rate = cache.hits + cache.misses > 0
                     ? static_cast<double>(cache.hits) /
                           static_cast<double>(cache.hits + cache.misses)
                     : 0.0;
  server.shutdown();
  return out;
}

int run() {
  std::cout << "# Service throughput: P=" << kProcs << ", N=" << kN
            << ", requests=" << kRequests << ", Poisson mean "
            << kMeanArrivalUs << "us, window=" << kWindowUs
            << "us, max_batch=" << kMaxBatch << "\n\n";

  const TraceSpec trace = make_trace();

  TextTable table("Open-loop replay per (backend, window, mode)");
  table.header({"backend", "mode", "window_us", "ops_per_s", "p50_us",
                "p95_us", "p99_us", "fusion", "cache_hit", "prs_msgs",
                "shed", "dl_miss"});

  bool ok = true;
  std::ostringstream json;
  std::vector<std::uint64_t> reference_digests;
  const auto emit = [&](const std::string& backend, const std::string& mode,
                        double window_us, const RunResult& r) {
    std::vector<double> sorted = r.latencies_us;
    std::sort(sorted.begin(), sorted.end());
    const double p50 = percentile(sorted, 0.50);
    const double p95 = percentile(sorted, 0.95);
    const double p99 = percentile(sorted, 0.99);
    const double ops_per_s =
        r.wall_us > 0.0 ? static_cast<double>(r.completed) * 1e6 / r.wall_us
                        : 0.0;
    const double fusion = r.completed > 0
                              ? static_cast<double>(r.fused) /
                                    static_cast<double>(r.completed)
                              : 0.0;
    const double shed_rate =
        static_cast<double>(r.shed) / static_cast<double>(kRequests);
    const double miss_rate = static_cast<double>(r.deadline_misses) /
                             static_cast<double>(kRequests);

    char fbuf[32], hbuf[32], sbuf[32], dbuf[32];
    std::snprintf(fbuf, sizeof(fbuf), "%.2f", fusion);
    std::snprintf(hbuf, sizeof(hbuf), "%.2f", r.hit_rate);
    std::snprintf(sbuf, sizeof(sbuf), "%.2f", shed_rate);
    std::snprintf(dbuf, sizeof(dbuf), "%.2f", miss_rate);
    table.row({backend, mode, std::to_string(window_us),
               std::to_string(ops_per_s), std::to_string(p50),
               std::to_string(p95), std::to_string(p99), std::string(fbuf),
               std::string(hbuf), std::to_string(r.prs_msgs),
               std::string(sbuf), std::string(dbuf)});

    json << JsonLine()
                .field("bench", "service_throughput")
                .field("backend", backend)
                .field("mode", mode)
                .field("window_us", window_us)
                .field("requests", kRequests)
                .field("completed", r.completed)
                .field("rejected", r.rejected)
                .field("ops_per_s", ops_per_s)
                .field("p50_us", p50)
                .field("p95_us", p95)
                .field("p99_us", p99)
                .field("fusion_rate", fusion)
                .field("cache_hit_rate", r.hit_rate)
                .field("batches", r.batches)
                .field("prs_msgs", r.prs_msgs)
                .field("shed_rate", shed_rate)
                .field("deadline_miss_rate", miss_rate)
                .field("wall_us", r.wall_us);
  };

  for (const std::string backend : {"sim", "threads"}) {
    std::int64_t prs_window0 = 0;
    for (const double window_us : {0.0, kWindowUs}) {
      ReplayOpts ro;
      ro.backend = backend;
      ro.window_us = window_us;
      RunResult r = replay(trace, ro);
      if (r.rejected != 0) {
        std::cerr << "FATAL: " << r.rejected
                  << " requests rejected; the bench sizes quotas to admit "
                     "everything\n";
        ok = false;
      }
      if (reference_digests.empty()) {
        reference_digests = r.digests;
      } else if (r.digests != reference_digests) {
        std::cerr << "FATAL: digests diverged on backend=" << backend
                  << " window=" << window_us << "\n";
        ok = false;
      }
      if (window_us == 0.0) {
        prs_window0 = r.prs_msgs;
      } else if (r.prs_msgs >= prs_window0) {
        std::cerr << "FATAL: window=" << window_us << " charged "
                  << r.prs_msgs << " PRS startups vs " << prs_window0
                  << " at window=0 on backend=" << backend << "\n";
        ok = false;
      }
      emit(backend, "plain", window_us, r);
    }

    // Overload measurement: 2x admission pressure, priorities, short
    // deadlines, tight pressure threshold.  The shed / deadline-miss /
    // p99 columns are the robustness layer's load-shaping signature; the
    // hard check is that the books still balance exactly.
    {
      ReplayOpts ro;
      ro.backend = backend;
      ro.pressure = 2.0;
      ro.overload = true;
      RunResult r = replay(trace, ro);
      if (!r.balanced) {
        std::cerr << "FATAL: overload-run accounting does not balance on "
                     "backend="
                  << backend << "\n";
        ok = false;
      }
      emit(backend, "overload", kWindowUs, r);
    }

    // Zero-overhead proof (in-process PR-8 baseline comparison): the
    // plain, nothing-configured server -- byte-for-byte the pre-robustness
    // code path -- against cancellation + watchdog + brown-out + overload
    // armed but idle.  Pre-staged queues make batch fusion deterministic,
    // so the modeled PRS startup counts must match *exactly*, not merely
    // approximately.
    {
      ReplayOpts plain;
      plain.backend = backend;
      plain.staged = true;
      ReplayOpts armed = plain;
      armed.armed = true;
      RunResult rp = replay(trace, plain);
      RunResult ra = replay(trace, armed);
      if (rp.completed != kRequests || ra.completed != kRequests) {
        std::cerr << "FATAL: zero-overhead proof runs must complete the "
                     "whole trace (plain "
                  << rp.completed << ", armed " << ra.completed << ")\n";
        ok = false;
      }
      if (rp.digests != ra.digests) {
        std::cerr << "FATAL: arming deadlines/watchdog/brown-out changed "
                     "digests on backend="
                  << backend << "\n";
        ok = false;
      }
      if (rp.prs_msgs != ra.prs_msgs) {
        std::cerr << "FATAL: armed-but-idle robustness charged "
                  << ra.prs_msgs << " PRS startups vs " << rp.prs_msgs
                  << " plain on backend=" << backend << "\n";
        ok = false;
      }
      emit(backend, "staged", kWindowUs, rp);
      emit(backend, "armed", kWindowUs, ra);
    }
  }
  table.print(std::cout);
  std::cout << "\n" << json.str();

  if (!ok) return 1;
  std::cout << "\nservice_throughput: digests bit-identical across backends "
               "and windows; windowed runs amortized PRS startups; "
               "armed-but-idle robustness charged zero added modeled cost; "
               "overload accounting balanced\n";
  return 0;
}

}  // namespace
}  // namespace pup::bench

int main() { return pup::bench::run(); }
