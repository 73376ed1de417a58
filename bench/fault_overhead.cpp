// Reliable-transport overhead on the Figure-4 pack workload (1-D, P=16).
//
// Proves the contract the reliable layer (coll/reliable.hpp) is built
// around: with no faults injected, routing every collective through the
// reliable path adds *zero* modeled cost -- same message count (and
// therefore the same number of tau startups), same bytes, same per-rank
// charges, bit-identical determinism digest.  Sequence numbers and
// checksums ride out-of-band in Message::wire, so "reliability is free
// when the network is clean".
//
// The same workload is then run under seeded drop/dup/delay/truncate
// schedules of increasing severity, reporting the recovery traffic
// (retransmissions, NAKs, dedups) and the modeled-time overhead relative
// to the clean run -- the measurable graceful degradation the ROADMAP
// asks for.  Alongside the text table, one JSON line per configuration is
// emitted on stdout for machine consumption.
//
// Exits non-zero if the zero-fault reliable run diverges from the raw
// baseline in any modeled quantity, or if a faulted run miscomputes the
// packed vector.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "bench_common.hpp"
#include "coll/reliable.hpp"
#include "sim/fault.hpp"

namespace pup::bench {
namespace {

constexpr int kProcs = 16;
constexpr dist::index_t kLocal = 16384;

struct Config {
  const char* label;
  const char* spec;  ///< PUP_FAULTS grammar; nullptr = no injection
  bool reliable;
};

struct RunStats {
  analysis::TraceDigest digest;
  coll::ReliableStats reliable;
  std::vector<Element> packed;
  double charged_us = 0.0;
};

RunStats run_config(const Workload& wl, const Config& c) {
  sim::Machine m(kProcs, sim::CostModel::calibrated_cm5(),
                 sim::Topology::crossbar(kProcs));
  // Installed explicitly so the bench is immune to a PUP_FAULTS env.
  m.set_fault_plan(c.spec == nullptr ? nullptr
                                     : sim::FaultPlan::parse(c.spec));
  coll::ReliableTransport::of(m).force(c.reliable);

  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  RunStats out;
  out.packed = pack(m, wl.array, wl.mask, opt).vector.gather();
  out.digest = analysis::digest(m);
  out.reliable = coll::ReliableTransport::of(m).stats();
  out.charged_us = m.modeled_total_us();
  return out;
}

int run() {
  const Workload wl =
      make_workload({kLocal * kProcs}, {kProcs}, {1024}, {0.5, false});

  const std::vector<Config> configs = {
      {"raw", nullptr, false},
      {"reliable-clean", nullptr, true},
      {"fault-light", "seed=1234 drop=0.01 dup=0.01 delay=0.01 ticks=2", true},
      {"fault-medium",
       "seed=1234 drop=0.05 dup=0.03 delay=0.04 ticks=2 trunc=0.03", true},
      {"fault-heavy",
       "seed=1234 drop=0.12 dup=0.05 delay=0.08 ticks=3 trunc=0.05", true},
  };

  std::cout << "# Reliable-transport overhead: Figure-4 pack workload, P="
            << kProcs << ", L=" << kLocal << "/rank, CMS scheme\n\n";

  TextTable table("Modeled cost vs fault severity (charges in ms)");
  table.header({"config", "msgs", "retrans", "naks", "dedup", "charged_ms",
                "overhead"});

  const RunStats raw = run_config(wl, configs[0]);
  bool ok = true;
  std::ostringstream json;
  for (const Config& c : configs) {
    const RunStats r = (c.label == configs[0].label) ? raw : run_config(wl, c);
    if (r.packed != raw.packed) {
      std::cerr << "FATAL: config " << c.label
                << " miscomputed the packed vector\n";
      ok = false;
    }
    const double overhead =
        raw.charged_us > 0 ? r.charged_us / raw.charged_us : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", overhead);
    table.row({c.label, std::to_string(r.digest.messages),
               std::to_string(r.reliable.retransmits),
               std::to_string(r.reliable.naks),
               std::to_string(r.reliable.dedup_discarded),
               std::to_string(r.charged_us / 1000.0), std::string(buf)});
    json << JsonLine()
                .field("bench", "fault_overhead")
                .field("config", c.label)
                .field("p", kProcs)
                .field("local", kLocal)
                .field("messages", r.digest.messages)
                .field("retransmits", r.reliable.retransmits)
                .field("naks", r.reliable.naks)
                .field("dedup_discarded", r.reliable.dedup_discarded)
                .field("charged_us", r.charged_us)
                .field("overhead", overhead);
  }
  table.print(std::cout);
  std::cout << "\n" << json.str();

  // The headline claim: stamping frames costs nothing on a clean network.
  const RunStats clean = run_config(wl, configs[1]);
  const std::string diff = analysis::diff_digests(raw.digest, clean.digest);
  if (!diff.empty()) {
    std::cerr << "FATAL: zero-fault reliable run diverged from baseline: "
              << diff << "\n";
    ok = false;
  }
  if (clean.digest.messages != raw.digest.messages ||
      clean.reliable.naks != 0 || clean.reliable.retransmits != 0) {
    std::cerr << "FATAL: zero-fault reliable run added modeled startups or "
                 "control traffic\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pup::bench

int main() { return pup::bench::run(); }
