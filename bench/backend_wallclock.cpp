// Backend wall-clock comparison on the Figure-4 pack workload.
//
// Runs the same PACK (and a full-collective warm pass) on the simulator
// backend and on the shared-memory thread backend, reporting for each:
//
//   * modeled_ms -- the tau + mu*m charges, which MUST be bit-identical
//     across backends (the parity contract of backend/backend.hpp);
//   * run_wall_ms -- real end-to-end wall clock of the operation;
//   * transport_wall_ms -- real time spent inside the backend's transport
//     (SPSC enqueue/dequeue/scans; zero by definition for the simulator).
//
// This is the measured-vs-modeled bridge the backend abstraction exists
// for: the model's prediction stays constant while the real data path
// underneath changes.  One JSON line per backend on stdout for machine
// consumption.  Exits non-zero if the backends' modeled digests or packed
// vectors diverge.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "bench_common.hpp"

namespace pup::bench {
namespace {

constexpr int kProcs = 16;
constexpr dist::index_t kLocal = 16384;

struct RunStats {
  analysis::TraceDigest digest;
  std::vector<Element> packed;
  double modeled_us = 0.0;
  double run_wall_us = 0.0;
  double transport_wall_us = 0.0;
};

RunStats run_backend(const Workload& wl, backend::Kind kind) {
  sim::Machine m(kProcs, sim::CostModel::calibrated_cm5(),
                 sim::Topology::crossbar(kProcs),
                 sim::ExecPolicy::from_env(), kind);
  analysis::DigestRecorder recorder(m);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;

  RunStats out;
  const auto t0 = std::chrono::steady_clock::now();
  out.packed = pack(m, wl.array, wl.mask, opt).vector.gather();
  out.run_wall_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  out.digest = recorder.digest();
  out.modeled_us = m.modeled_total_us();
  out.transport_wall_us = m.transport_wall_us();
  return out;
}

int run() {
  const Workload wl =
      make_workload({kLocal * kProcs}, {kProcs}, {1024}, {0.5, false});

  std::cout << "# Backend wall clock: Figure-4 pack workload, P=" << kProcs
            << ", L=" << kLocal << "/rank, CMS scheme\n\n";

  TextTable table("Modeled vs real time per backend (ms)");
  table.header({"backend", "msgs", "modeled_ms", "run_wall_ms",
                "transport_wall_ms"});

  bool ok = true;
  std::ostringstream json;
  RunStats baseline;
  for (const backend::Kind kind :
       {backend::Kind::kSim, backend::Kind::kThreads}) {
    const RunStats r = run_backend(wl, kind);
    const char* name = backend::kind_name(kind);
    if (kind == backend::Kind::kSim) {
      baseline = r;
    } else {
      if (r.packed != baseline.packed) {
        std::cerr << "FATAL: backend " << name
                  << " miscomputed the packed vector\n";
        ok = false;
      }
      const std::string diff =
          analysis::diff_digests(baseline.digest, r.digest);
      if (!diff.empty()) {
        std::cerr << "FATAL: backend " << name
                  << " diverged from the simulator digest: " << diff << "\n";
        ok = false;
      }
    }
    table.row({name, std::to_string(r.digest.messages),
               std::to_string(r.modeled_us / 1000.0),
               std::to_string(r.run_wall_us / 1000.0),
               std::to_string(r.transport_wall_us / 1000.0)});
    json << JsonLine()
                .field("bench", "backend_wallclock")
                .field("backend", name)
                .field("p", kProcs)
                .field("local", kLocal)
                .field("messages", r.digest.messages)
                .field("modeled_us", r.modeled_us)
                .field("run_wall_us", r.run_wall_us)
                .field("transport_wall_us", r.transport_wall_us);
  }
  table.print(std::cout);
  std::cout << "\n" << json.str();
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pup::bench

int main() { return pup::bench::run(); }
