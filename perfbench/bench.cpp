// perfbench: the PACK/UNPACK benchmark.
//
//   perfbench --workload paper16|service --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// One process runs one workload: it generates every input from the seed,
// sets the workload up several times (setup_s is the median), runs a
// closed-loop timed phase, checks every output outside the timed phase and
// prints one JSON line last.  With --trace 0 the JSON carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// traced phase (and trace.overhead_frac against an untraced phase run in
// the same process).  Layers are measured from outside: the driver times
// its own calls into each module's public functions and reads the counters
// the modules expose (Machine accounting and trace, PlanCache::stats,
// service::Response, ServerStats).  README.md explains the workloads and
// the metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "plan/plan_cache.hpp"
#include "service/server.hpp"

namespace perfbench {

using namespace pup;
using Clock = std::chrono::steady_clock;
using Element = std::int64_t;

// ---------------------------------------------------------------------------
// The pinned cost model.
//
// CostModel::calibrated_cm5() re-times the host on every process start, so
// modeled microseconds would drift with host speed from run to run.  These
// are the values one calibrated_cm5() call returned on a 4-vCPU Intel Xeon
// (the median of 8 consecutive calls, whose tau ranged 0.077-0.115 us).
// Every Machine and Server the benchmark builds uses them, so modeled time
// and every coll.* count repeat bit-exactly across runs and backends.
constexpr sim::CostModel kPinnedCost{/*tau_us=*/0.081272516250610355,
                                     /*mu_us_per_byte=*/0.00011340351104736328,
                                     /*delta_us=*/0.00028350877761840822};

double since_us(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Metrics and statistics.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double median(std::span<const double> v) {
  return percentile({v.begin(), v.end()}, 0.5);
}

/// Latency and simulated-time figures are per-case percentiles, combined
/// over cases.  On a shared host an op's latency is bimodal: most ops run
/// in a slow state, and quiet spells with faster ops come and go.  The
/// share of fast ops changes from run to run, so each case's median (and
/// any lower quantile) jumped by 17-31% between runs of the same code,
/// while its p75 and p90 moved by 3-9%.  Every case completes about 260
/// or more ops of each kind in a 45 s run, so about 26 or more samples
/// lie beyond the p90 (the counts are printed with every result).
constexpr double kCentralQ = 0.75;
constexpr double kTailQ = 0.90;

/// A fixed-capacity uniform sample of a stream (Algorithm R).  Its storage
/// is allocated and written when it is made, before the timed phase, so the
/// benchmark's own memory does not grow with the number of ops a run
/// completes and peak_rss_mb can be read after the timed phase.
template <typename T>
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity) : items_(capacity) {}

  void add(const T& x) {
    if (seen_ < items_.size()) {
      items_[seen_] = x;
    } else if (const std::size_t j = rng_() % (seen_ + 1); j < items_.size()) {
      items_[j] = x;
    }
    ++seen_;
  }
  std::span<const T> items() const {
    return {items_.data(), std::min(seen_, items_.size())};
  }
  std::span<T> items() {
    return {items_.data(), std::min(seen_, items_.size())};
  }

 private:
  std::vector<T> items_;
  std::mt19937_64 rng_{0x5eed};
  std::size_t seen_ = 0;
};

/// Samples kept per kind of op in a phase: more than a 45 s run completes
/// on a 4-vCPU Xeon, so every op is kept there.
constexpr std::size_t kSampleCap = std::size_t{1} << 14;

/// Per-layer sums over the traced phase, divided by the op count at the end.
struct LayerSums {
  std::map<std::string, double> sum;
  void add(const std::string& k, double v) { sum[k] += v; }
};

// ---------------------------------------------------------------------------
// Spans of the traced run.  Kept in memory, written at exit as a Chrome
// trace (loads in Perfetto / chrome://tracing).

struct Span {
  const char* name;
  const char* layer;
  std::int64_t op;
  int parent;
  double t0_us;
  double t1_us;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Opens a span and returns its index; returns -1 and records nothing
  /// when tracing is off.
  int open(const char* name, const char* layer, std::int64_t op,
           int parent) {
    if (!on_) return -1;
    spans_.push_back({name, layer, op, parent, now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int idx) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].t1_us = now();
  }

  /// Runs fn inside a span when tracing, bare otherwise.
  template <typename F>
  decltype(auto) span(const char* name, const char* layer, std::int64_t op,
                      int parent, F&& fn) {
    struct Closer {
      Tracer* t;
      int idx;
      ~Closer() { t->close(idx); }
    } closer{this, open(name, layer, op, parent)};
    return fn();
  }

  /// Self time per layer (span duration minus its children's), summed over
  /// the spans of ops, plus the summed duration of the ops' root spans.
  /// Spans outside any op (op id -1: checks, client-side submits) are
  /// written to the trace file but not attributed.
  void self_times(std::map<std::string, double>& by_layer,
                  double& root_us) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.op >= 0 && s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.t1_us - s.t0_us;
      }
    }
    root_us = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.op < 0) continue;
      const double dur = s.t1_us - s.t0_us;
      by_layer[s.layer] += dur - child[i];
      if (s.parent < 0) root_us += dur;
    }
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"cat\":\""
          << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << s.t0_us << ",\"dur\":" << (s.t1_us - s.t0_us)
          << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent
          << "}}";
    }
    out << "\n]}\n";
  }

 private:
  double now() const { return since_us(epoch_, Clock::now()); }

  Clock::time_point epoch_;
  bool on_ = false;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Exact modeled quantities of one operation.  Repeats of the same operation
// must produce identical fingerprints (pinned cost model).

struct Fingerprint {
  double modeled_us = 0.0;
  std::int64_t prs_msgs = 0, prs_bytes = 0, m2m_msgs = 0, m2m_bytes = 0;
  std::int64_t selected = 0;
  bool set = false;
  bool same(const Fingerprint& o) const {
    return modeled_us == o.modeled_us && prs_msgs == o.prs_msgs &&
           prs_bytes == o.prs_bytes && m2m_msgs == o.m2m_msgs &&
           m2m_bytes == o.m2m_bytes && selected == o.selected;
  }
  std::uint64_t hash(std::uint64_t h) const {
    const std::int64_t words[] = {prs_msgs, prs_bytes, m2m_msgs, m2m_bytes,
                                  selected};
    h = service::fnv1a(&modeled_us, sizeof(modeled_us), h);
    return service::fnv1a(words, sizeof(words), h);
  }
};

/// Reads the machine's accounting since its last reset_accounting().
Fingerprint read_fingerprint(const sim::Machine& m, std::int64_t selected) {
  Fingerprint f;
  f.modeled_us = m.modeled_total_us();
  f.prs_msgs = m.trace().messages_in(sim::Category::kPrs);
  f.prs_bytes = m.trace().bytes_in(sim::Category::kPrs);
  f.m2m_msgs = m.trace().messages_in(sim::Category::kM2M);
  f.m2m_bytes = m.trace().bytes_in(sim::Category::kM2M);
  f.selected = selected;
  f.set = true;
  return f;
}

/// Records `f` as the reference on first use; afterwards counts a mismatch.
bool matches_reference(Fingerprint& ref, const Fingerprint& f) {
  if (!ref.set) {
    ref = f;
    return true;
  }
  return ref.same(f);
}

double local_sum_us(const sim::Machine& m) {
  double s = 0.0;
  for (int r = 0; r < m.nprocs(); ++r) s += m.times(r).local_us();
  return s;
}

std::int64_t segments_sent(const std::vector<ProcCounters>& cs) {
  std::int64_t s = 0;
  for (const ProcCounters& c : cs) s += c.segments_sent;
  return s;
}

/// Per-op layer accounting of one operation on a sequential sim machine
/// (after the op ran on a machine whose accounting was reset just before
/// it).
void add_machine_layers(LayerSums& L, const sim::Machine& m, double wall_us) {
  const double lsum = local_sum_us(m);
  L.add("core.local_sum_us", lsum);
  L.add("core.local_max_us", m.max_us(sim::Category::kLocal));
  L.add("coll.prs_msgs",
        static_cast<double>(m.trace().messages_in(sim::Category::kPrs)));
  L.add("coll.prs_bytes",
        static_cast<double>(m.trace().bytes_in(sim::Category::kPrs)));
  L.add("coll.m2m_msgs",
        static_cast<double>(m.trace().messages_in(sim::Category::kM2M)));
  L.add("coll.m2m_bytes",
        static_cast<double>(m.trace().bytes_in(sim::Category::kM2M)));
  L.add("coll.modeled_us", m.modeled_total_us());
  // Everything but local computation: driving the collectives, the sim
  // backend's mailbox transport, allocation.
  L.add("sim.overhead_us", wall_us - lsum);
}

// ---------------------------------------------------------------------------
// Host diagnostics.

/// A fixed reference kernel (a data-dependent mask scan over 1 Mi bytes,
/// 8 passes).  Timed at run start and end, so a slow run can be traced to
/// per-core drift rather than to the code.
double host_ref_us() {
  static std::vector<std::uint8_t> data = [] {
    std::vector<std::uint8_t> d(std::size_t{1} << 20);
    std::mt19937_64 rng(12345);
    for (auto& x : d) x = static_cast<std::uint8_t>(rng() & 1);
    return d;
  }();
  volatile std::int64_t sink = 0;
  const auto t0 = Clock::now();
  std::int64_t count = 0;
  for (int rep = 0; rep < 8; ++rep) {
    for (const std::uint8_t x : data) {
      if (x) ++count;
    }
  }
  sink = count;
  (void)sink;
  return since_us(t0, Clock::now());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<Element> random_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Element> v(n);
  for (auto& x : v) x = static_cast<Element>(rng() >> 1);
  return v;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// What a timed phase produces.

/// One timed op: its case, latency and simulated time (busiest rank).
struct Sample {
  int c;
  double us;
  double sim_us;
  int key = 0;  // service: the request's entry in the direct-call table
};

struct PhaseStats {
  Reservoir<Sample> pack{kSampleCap}, unpack{kSampleCap};
  std::int64_t ops = 0;      // operations attempted
  std::int64_t ok_ops = 0;   // completed OK
  std::int64_t failed = 0;   // failed, refused or modeled mismatch
  double elapsed_s = 0.0;
  LayerSums layers;          // traced phase only
  std::int64_t layer_ops = 0;
};

struct Check {
  std::int64_t failed = 0;
  std::vector<std::string> notes;
  void fail(const std::string& what) {
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
};

/// One workload: set up in its constructor, then timed phases, a check,
/// and its per-layer metrics.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual PhaseStats run_phase(double seconds, Tracer& tracer) = 0;
  /// Output checks, outside any timed phase.
  virtual void check(Check& c, Tracer& tracer, LayerSums& layers) = 0;
  /// Writes the workload's own per-layer metrics into `out`: its setup-time
  /// probes, and the self times of the traced phase `st` (per layer in
  /// `self`, summed over the ops' root spans in `root_us`) attributed to
  /// layers, with trace.coverage_frac.
  virtual void per_layer(const PhaseStats& st,
                         const std::map<std::string, double>& self,
                         double root_us,
                         std::map<std::string, double>& out) const = 0;
  /// Hash of every exact modeled quantity (same seed => same hash).
  virtual std::uint64_t modeled_fingerprint() const = 0;
  virtual void diagnostics(std::ostream& out) const { (void)out; }
};

// ---------------------------------------------------------------------------
// Setup-time layer probes shared by the library workloads.

struct SetupProbe {
  double scatter_us = 0.0;
  std::int64_t scatters = 0;
  double compile_us = 0.0;
  double lookup_us = 0.0;
  std::int64_t plans = 0;

  template <typename T>
  dist::DistArray<T> scatter(const dist::Distribution& d,
                             const std::vector<T>& host) {
    const auto t0 = Clock::now();
    auto a = dist::DistArray<T>::scatter(d, host);
    scatter_us += since_us(t0, Clock::now());
    ++scatters;
    return a;
  }

  /// Cold compile of a CMS PACK plan, then a warm PlanCache hit, both
  /// timed.
  void probe_plans(sim::Machine& m, const dist::Distribution& d) {
    auto t0 = Clock::now();
    plan::compile_pack_plan(m, d, sizeof(Element));
    compile_us += since_us(t0, Clock::now());
    plan::PlanCache cache(4);
    cache.pack_plan(m, d, sizeof(Element));
    t0 = Clock::now();
    cache.pack_plan(m, d, sizeof(Element));
    lookup_us += since_us(t0, Clock::now());
    ++plans;
    m.reset_accounting();
  }

  /// Per-call means.
  void report(std::map<std::string, double>& out) const {
    out["dist.scatter_us"] = scatter_us / static_cast<double>(scatters);
    out["plan.compile_us"] = compile_us / static_cast<double>(plans);
    out["plan.lookup_us"] = lookup_us / static_cast<double>(plans);
  }
};

// ---------------------------------------------------------------------------
// paper16: the paper's own experiment (Fig. 4/5 2-D size) on the sim
// backend, P=16 on a 4x4 grid, 512x512 8-byte elements, W in {1, 8, 128}
// x density {10%, 50%, 90%, LT}, scheme chosen by the Section 6.4 model.

class Paper16 final : public Workload {
 public:
  explicit Paper16(std::uint64_t seed)
      : machine_(16, kPinnedCost, sim::Topology::crossbar(16),
                 sim::ExecPolicy::sequential(), backend::Kind::kSim) {
    const dist::Shape shape({kExtent, kExtent});
    host_array_ = random_values(static_cast<std::size_t>(shape.size()),
                                mix_seed(seed, 1));
    host_source_ = random_values(static_cast<std::size_t>(shape.size()),
                                 mix_seed(seed, 2));
    const struct {
      double density;
      bool lt;
      const char* label;
    } densities[] = {{0.1, false, "10%"},
                     {0.5, false, "50%"},
                     {0.9, false, "90%"},
                     {0.0, true, "LT"}};
    for (const dist::index_t w : {1, 8, 128}) {
      const dist::Distribution d(shape, dist::ProcessGrid({4, 4}), {w, w});
      arrays_.push_back(std::make_unique<dist::DistArray<Element>>(
          probe_.scatter(d, host_array_)));
      for (const auto& den : densities) {
        Case c;
        c.label = "W=" + std::to_string(w) + "/" + den.label;
        c.array = arrays_.back().get();
        c.host_mask = den.lt ? lt_mask(shape)
                             : random_mask(shape.size(), den.density,
                                           mix_seed(seed, 100 + cases_.size()));
        c.mask = probe_.scatter(d, c.host_mask);
        c.index = static_cast<int>(cases_.size());
        cases_.push_back(std::move(c));
      }
      probe_.probe_plans(machine_, d);
    }
    // Warm-up: one pack + unpack per case, which also records each case's
    // modeled fingerprint for the repeat check.
    Tracer off(Clock::now());
    for (Case& c : cases_) {
      machine_.reset_accounting();
      auto packed = pack(c, off, -1);
      matches_reference(c.fp_pack, read_fingerprint(machine_, packed.size));
      machine_.reset_accounting();
      auto back = unpack(c, off, -1, packed.vector);
      matches_reference(c.fp_unpack, read_fingerprint(machine_, back.size));
    }
  }

  PhaseStats run_phase(double seconds, Tracer& tracer) override {
    PhaseStats st;
    const bool traced = tracer.on();
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration<double>(seconds);
    std::int64_t op = 0;
    while (Clock::now() < stop) {
      for (Case& c : cases_) {
        // PACK.
        machine_.reset_accounting();
        const auto t0 = Clock::now();
        PackResult<Element> packed = pack(c, tracer, op);
        const double pack_us = since_us(t0, Clock::now());
        finish_op(st, c, pack_us, packed.size, true, traced,
                  segments_sent(packed.counters));
        ++op;
        // UNPACK of that result back into the array.
        machine_.reset_accounting();
        const auto t1 = Clock::now();
        UnpackResult<Element> back = unpack(c, tracer, op, packed.vector);
        const double unpack_us = since_us(t1, Clock::now());
        finish_op(st, c, unpack_us, back.size, false, traced,
                  segments_sent(back.counters));
        ++op;
        c.wall_us += pack_us + unpack_us;
      }
    }
    st.elapsed_s = since_us(start, Clock::now()) / 1e6;
    return st;
  }

  void check(Check& chk, Tracer& tracer, LayerSums& L) override {
    std::int64_t gathers = 0;
    double gather_us = 0.0, digest_us = 0.0;
    for (Case& c : cases_) {
      machine_.reset_accounting();
      auto packed = pack(c, tracer, -1);
      const auto expect_pack = serial_pack<Element>(host_array_, c.host_mask);
      auto t0 = Clock::now();
      const auto got_pack = tracer.span("dist.gather", "dist", -1, -1, [&] {
        return packed.vector.gather();
      });
      gather_us += since_us(t0, Clock::now());
      t0 = Clock::now();
      const std::uint64_t d = service::result_digest(got_pack, packed.size);
      digest_us += since_us(t0, Clock::now());
      ++gathers;
      if (got_pack != expect_pack ||
          d != service::result_digest(expect_pack,
                                      static_cast<std::int64_t>(
                                          expect_pack.size()))) {
        chk.fail("paper16 " + c.label + ": PACK differs from serial_pack");
      }
      // UNPACK a distinct vector so an unpack that ignored its input
      // could not pass.
      const auto src = serial_pack<Element>(host_source_, c.host_mask);
      const auto vec = dist::DistArray<Element>::scatter(
          dist::Distribution::block1d(static_cast<dist::index_t>(src.size()),
                                      machine_.nprocs()),
          src);
      machine_.reset_accounting();
      auto un = unpack(c, tracer, -1, vec);
      if (un.result.gather() !=
          serial_unpack<Element>(src, c.host_mask, host_array_)) {
        chk.fail("paper16 " + c.label + ": UNPACK differs from serial_unpack");
      }
    }
    L.add("dist.gather_us", gather_us / static_cast<double>(gathers));
    L.add("dist.digest_us", digest_us / static_cast<double>(gathers));
    machine_.reset_accounting();
  }

  /// Self time per layer, per op, from the spans of the traced ops.
  void per_layer(const PhaseStats& st,
                 const std::map<std::string, double>& self, double root_us,
                 std::map<std::string, double>& out) const override {
    probe_.report(out);
    const double ops =
        static_cast<double>(std::max<std::int64_t>(1, st.layer_ops));
    const auto self_us = [&](const char* layer) {
      const auto it = self.find(layer);
      return it == self.end() ? 0.0 : it->second;
    };
    for (const char* layer : {"op", "core", "plan", "dist", "service"}) {
      out[std::string("self.") + layer + "_us"] = self_us(layer) / ops;
    }
    out["trace.coverage_frac"] =
        root_us > 0 ? 1.0 - self_us("op") / root_us : 0.0;
  }

  std::uint64_t modeled_fingerprint() const override {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Case& c : cases_) h = c.fp_unpack.hash(c.fp_pack.hash(h));
    return h;
  }

  void diagnostics(std::ostream& out) const override {
    double total = 0.0;
    for (const Case& c : cases_) total += c.wall_us;
    out << "# paper16 case share of wall time (pack/unpack scheme):";
    for (const Case& c : cases_) {
      out << " " << c.label << "=" << (total > 0 ? c.wall_us / total : 0.0)
          << "(" << scheme_name(c.pack_scheme) << "/"
          << scheme_name(c.unpack_scheme) << ")";
    }
    out << "\n";
  }

 private:
  static constexpr dist::index_t kExtent = 512;

  struct Case {
    std::string label;
    int index = 0;
    const dist::DistArray<Element>* array = nullptr;
    std::vector<mask_t> host_mask;
    dist::DistArray<mask_t> mask;
    Fingerprint fp_pack, fp_unpack;
    PackScheme pack_scheme = PackScheme::kAuto;      // as resolved
    UnpackScheme unpack_scheme = UnpackScheme::kAuto;
    double wall_us = 0.0;
  };

  static const char* scheme_name(PackScheme s) {
    return s == PackScheme::kSimpleStorage    ? "SSS"
           : s == PackScheme::kCompactStorage ? "CSS"
           : s == PackScheme::kCompactMessage ? "CMS"
                                              : "auto";
  }
  static const char* scheme_name(UnpackScheme s) {
    return s == UnpackScheme::kSimpleStorage    ? "SSS"
           : s == UnpackScheme::kCompactStorage ? "CSS"
                                                : "auto";
  }

  // The scheme of every paper16 op: chosen by the Section 6.4 model.
  static constexpr PackOptions kPackOpts{.scheme = PackScheme::kAuto};
  static constexpr UnpackOptions kUnpackOpts{.scheme = UnpackScheme::kAuto};

  // pup::pack(machine_, *c.array, c.mask, kPackOpts), made of the calls
  // pup::detail::pack_impl makes so each can be spanned: scheme
  // resolution, ranking, redistribution.  The spans record nothing when
  // tracing is off, so timed, warm-up and checked ops all run this path.
  PackResult<Element> pack(Case& c, Tracer& t, std::int64_t op) {
    const int root = t.open("op.pack", "op", op, -1);
    const PackScheme scheme = t.span("core.resolve", "core", op, root, [&] {
      return pup::detail::resolve_pack_scheme(machine_, c.mask,
                                              kPackOpts.scheme);
    });
    c.pack_scheme = scheme;
    RankingOptions ropt;
    ropt.prs = kPackOpts.prs;
    ropt.record_infos = scheme == PackScheme::kSimpleStorage;
    const auto r0 = Clock::now();
    const RankingResult ranking = t.span("core.rank", "core", op, root, [&] {
      return rank_mask(machine_, c.mask, ropt);
    });
    rank_us_ = since_us(r0, Clock::now());
    PackResult<Element> out =
        t.span("core.pack_execute", "core", op, root, [&] {
          return pup::detail::pack_execute<Element>(
              machine_, *c.array, c.mask, ranking, scheme, std::nullopt,
              nullptr, kPackOpts);
        });
    t.close(root);
    return out;
  }

  // pup::unpack(machine_, v, c.mask, *c.array, kUnpackOpts), likewise.
  UnpackResult<Element> unpack(Case& c, Tracer& t, std::int64_t op,
                               const dist::DistArray<Element>& v) {
    const int root = t.open("op.unpack", "op", op, -1);
    const UnpackScheme scheme = t.span("core.resolve", "core", op, root, [&] {
      return pup::detail::resolve_unpack_scheme(machine_, c.mask,
                                                kUnpackOpts.scheme);
    });
    c.unpack_scheme = scheme;
    RankingOptions ropt;
    ropt.prs = kUnpackOpts.prs;
    ropt.record_infos = scheme == UnpackScheme::kSimpleStorage;
    const auto r0 = Clock::now();
    const RankingResult ranking = t.span("core.rank", "core", op, root, [&] {
      return rank_mask(machine_, c.mask, ropt);
    });
    rank_us_ = since_us(r0, Clock::now());
    UnpackResult<Element> out =
        t.span("core.unpack_execute", "core", op, root, [&] {
          return pup::detail::unpack_execute<Element>(
              machine_, v, c.mask, *c.array, ranking, scheme, kUnpackOpts);
        });
    t.close(root);
    return out;
  }

  void finish_op(PhaseStats& st, Case& c, double wall, std::int64_t selected,
                 bool is_pack, bool traced, std::int64_t segments) {
    ++st.ops;
    const double sim_us = machine_.max_total_us();
    if (!matches_reference(is_pack ? c.fp_pack : c.fp_unpack,
                           read_fingerprint(machine_, selected))) {
      ++st.failed;
      return;
    }
    ++st.ok_ops;
    (is_pack ? st.pack : st.unpack).add({c.index, wall, sim_us});
    if (traced) {
      add_machine_layers(st.layers, machine_, wall);
      st.layers.add("core.selected", static_cast<double>(selected));
      st.layers.add("core.segments", static_cast<double>(segments));
      st.layers.add("core.rank_us", rank_us_);
      st.layers.add("plan.batch_size", 1.0);
      ++st.layer_ops;
    }
  }

  sim::Machine machine_;
  SetupProbe probe_;
  std::vector<Element> host_array_, host_source_;
  std::vector<std::unique_ptr<dist::DistArray<Element>>> arrays_;
  std::vector<Case> cases_;
  double rank_us_ = 0.0;  // wall time of the last op's ranking call
};

// ---------------------------------------------------------------------------
// service: service::Server on the sim backend, P=8, N=32768, batching
// window 1000 us, max_batch 8; 3 tenants, each with array x (W=32, fusable)
// and y (W=64, never fuses with x); 70% PACK (a quarter on y) and 30%
// UNPACK; masks from a seeded pool with densities 10-90%; one client thread
// keeps K=8 requests outstanding (closed loop).  The pool's densities are
// evenly spaced, not drawn: drawn densities made the work per request
// differ from seed to seed (sim_unpack_us ranged 95-146 us over ten
// seeds), which the seed-to-seed spread would count as noise.

class ServiceWl final : public Workload {
 public:
  static constexpr int kProcs = 8;
  static constexpr dist::index_t kN = 32768;
  static constexpr int kTenants = 3;
  static constexpr int kPool = 16;         // masks per layout
  static constexpr std::size_t kOutstanding = 8;
  static constexpr std::size_t kSchedule = 4096;
  static constexpr std::size_t kReplay = 256;
  static constexpr int kSegments = 4;
  static constexpr int kSimReps = 20;  // rounds per sim pass

  explicit ServiceWl(std::uint64_t seed)
      : replay_(kProcs, kPinnedCost, sim::Topology::crossbar(kProcs),
                sim::ExecPolicy::sequential(), backend::Kind::kSim) {
    std::mt19937_64 rng(mix_seed(seed, 3));
    const char* names[2] = {"x", "y"};
    const dist::index_t blocks[2] = {32, 64};
    for (int l = 0; l < 2; ++l) {
      Layout& L = layouts_[l];
      L.name = names[l];
      L.dist = dist::Distribution::block_cyclic(
          dist::Shape({kN}), dist::ProcessGrid({kProcs}), blocks[l]);
      const auto source = random_values(static_cast<std::size_t>(kN),
                                        mix_seed(seed, 10 + l));
      for (int i = 0; i < kPool; ++i) {
        const double density = 0.1 + 0.8 * i / (kPool - 1);
        L.host_masks.push_back(random_mask(
            kN, density, mix_seed(seed, 1000 + l * kPool + i)));
        L.masks.push_back(probe_.scatter(L.dist, L.host_masks.back()));
        L.host_vectors.push_back(serial_pack<Element>(source, L.host_masks[i]));
        L.vectors.push_back(dist::DistArray<Element>::scatter(
            dist::Distribution::block1d(
                static_cast<dist::index_t>(L.host_vectors[i].size()), kProcs),
            L.host_vectors[i]));
      }
      probe_.probe_plans(replay_, L.dist);
      for (int t = 0; t < kTenants; ++t) {
        L.fields.push_back(random_values(static_cast<std::size_t>(kN),
                                         mix_seed(seed, 20 + 2 * t + l)));
        L.field_arrays.push_back(probe_.scatter(L.dist, L.fields[t]));
        // Expected digests from direct library calls on the host data.
        for (int i = 0; i < kPool; ++i) {
          const auto& mk = L.host_masks[static_cast<std::size_t>(i)];
          const auto packed = serial_pack<Element>(L.fields[t], mk);
          const auto count = static_cast<std::int64_t>(packed.size());
          L.expect_pack.push_back(service::result_digest(packed, count));
          L.expect_unpack.push_back(service::result_digest(
              serial_unpack<Element>(L.host_vectors[i], mk, L.fields[t]),
              count));
        }
      }
    }
    // The seeded request schedule, replayed cyclically by the client.
    std::uniform_int_distribution<int> tenant(0, kTenants - 1);
    std::uniform_int_distribution<int> pick(0, kPool - 1);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (std::size_t k = 0; k < kSchedule; ++k) {
      Req r;
      r.tenant = tenant(rng);
      r.pack = u(rng) < 0.7;
      r.layout = u(rng) < 0.25 ? 1 : 0;
      r.mask = pick(rng);
      schedule_.push_back(r);
    }

    service::Server::Options opt;
    opt.nprocs = kProcs;
    opt.cost = kPinnedCost;
    opt.window_us = 1000.0;
    opt.max_batch = 8;
    opt.threads = 1;
    opt.backend = "sim";
    server_ = std::make_unique<service::Server>(opt);
    for (int t = 0; t < kTenants; ++t) {
      server_->register_tenant(tenant_name(t));
      for (Layout& L : layouts_) {
        server_->register_array(tenant_name(t), L.name,
                                L.field_arrays[static_cast<std::size_t>(t)]);
      }
    }
    // Warm-up: one request per (op, layout) case.
    for (const bool pack : {true, false}) {
      for (int l = 0; l < 2; ++l) {
        Req r{0, pack, l, 0};
        const service::Response resp = submit(r).get();
        if (resp.status != service::Status::kOk ||
            resp.digest != expected(r)) {
          warmup_failed_ = true;
        }
      }
    }
  }

  PhaseStats run_phase(double seconds, Tracer& tracer) override {
    PhaseStats st;
    struct Out {
      std::size_t req;
      std::future<service::Response> f;
    };
    std::deque<Out> q;
    replay_sample_ = Reservoir<Served>(kReplay);
    Reservoir<double> queue_us(kSampleCap), exec_us(kSampleCap);
    double fused = 0.0, hits = 0.0, batch = 0.0, latency = 0.0, qsum = 0.0,
           esum = 0.0;
    // Each response is checked and folded into fixed-size statistics as it
    // arrives, on the client thread while it would otherwise wait.  Nothing
    // here is inside a measured latency, which the server stamps.
    auto take = [&](Out& o) {
      const service::Response resp = o.f.get();
      const Req& r = schedule_[o.req];
      ++st.ops;
      if (resp.status != service::Status::kOk || resp.digest != expected(r)) {
        ++st.failed;
        return;
      }
      ++st.ok_ops;
      (r.pack ? st.pack : st.unpack)
          .add({r.layout, resp.latency_us, 0.0, sim_key(r)});
      queue_us.add(resp.queue_us);
      exec_us.add(resp.exec_us);
      qsum += resp.queue_us;
      esum += resp.exec_us;
      latency += resp.latency_us;
      fused += resp.fused ? 1.0 : 0.0;
      hits += resp.cache_hit ? 1.0 : 0.0;
      batch += static_cast<double>(resp.batch_size);
      replay_sample_.add({o.req, resp});
    };
    const auto stats0 = server_->stats();
    const bool traced = tracer.on();
    double submit_us = 0.0;
    // The timed phase runs in kSegments closed-loop segments, each drained
    // at its end, with a sim pass before, between and after them, so the
    // direct calls behind sim_*_us sample the host across the whole run.
    // Only the segments count towards elapsed_s.
    for (int seg = 0; seg < kSegments; ++seg) {
      sim_pass();
      const auto start = Clock::now();
      const auto stop =
          start + std::chrono::duration<double>(seconds / kSegments);
      bool stopping = false;
      for (;;) {
        while (!stopping && q.size() < kOutstanding) {
          const std::size_t idx = next_++ % kSchedule;
          const auto s0 = Clock::now();
          auto f = tracer.span("service.submit", "service", -1, -1,
                               [&] { return submit(schedule_[idx]); });
          submit_us += since_us(s0, Clock::now());
          q.push_back({idx, std::move(f)});
        }
        if (q.empty()) break;
        take(q.front());
        q.pop_front();
        for (auto it = q.begin(); it != q.end();) {
          if (it->f.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            take(*it);
            it = q.erase(it);
          } else {
            ++it;
          }
        }
        if (!stopping && Clock::now() >= stop) stopping = true;
      }
      st.elapsed_s += since_us(start, Clock::now()) / 1e6;
    }
    const auto stats1 = server_->stats();
    sim_pass();
    // Each served request's simulated time, now that the entries are
    // complete.
    for (Reservoir<Sample>* kind : {&st.pack, &st.unpack}) {
      for (Sample& x : kind->items()) x.sim_us = sim_us(x.key);
    }
    if (traced && st.ok_ops > 0) {
      const double n = static_cast<double>(st.ok_ops);
      const double subm = static_cast<double>(stats1.submitted -
                                              stats0.submitted);
      layers_["service.submit_us"] = submit_us / subm;
      layers_["service.queue_us"] = median(queue_us.items());
      layers_["service.exec_us"] = median(exec_us.items());
      layers_["service.fused_frac"] = fused / n;
      layers_["service.batches"] =
          static_cast<double>(stats1.batches - stats0.batches) / n;
      layers_["service.reject_frac"] =
          static_cast<double>(stats1.rejected - stats0.rejected +
                              stats1.shed - stats0.shed) / subm;
      layers_["plan.hit_frac"] = hits / n;
      layers_["plan.batch_size"] = batch / n;
      mean_queue_ = qsum / n;
      mean_exec_ = esum / n;
      mean_latency_ = latency / n;
    }
    return st;
  }

  void check(Check& chk, Tracer& tracer, LayerSums& L) override {
    if (warmup_failed_) chk.fail("service: a warm-up request failed");
    for (const auto& [key, entry] : sim_) {
      if (entry.mismatch) {
        chk.fail("service: a direct pack/unpack differs from setup or "
                 "did not repeat its modeled counts");
      }
    }
    if (!tracer.on()) return;
    // Replay a uniform sample of the served requests' dispatch path on a
    // machine of our own: PlanCache lookup -> pack/unpack with the plan ->
    // gather -> result_digest.  This splits the server's exec_us into
    // layers.
    plan::PlanCache cache(64);
    LayerSums R;
    std::int64_t n = 0;
    for (const Served& s : replay_sample_.items()) {
      const Req& r = schedule_[s.req];
      const Layout& lay = layouts_[r.layout];
      const auto& mask = lay.masks[static_cast<std::size_t>(r.mask)];
      const auto& field = lay.field_arrays[static_cast<std::size_t>(r.tenant)];
      const std::int64_t op = n;
      replay_.reset_accounting();
      const int root = tracer.open(r.pack ? "replay.pack" : "replay.unpack",
                                   "op", op, -1);
      std::vector<Element> out;
      std::int64_t count = 0, segments = 0;
      const dist::DistArray<mask_t>* one = &mask;
      const auto masks =
          std::span<const dist::DistArray<mask_t>* const>(&one, 1);
      double rank_us = 0.0, machine_us = 0.0;
      Clock::time_point r0;
      const auto lookup = [&](auto&& fn) {
        const auto l0 = Clock::now();
        auto plan = tracer.span("plan.lookup", "plan", op, root, fn);
        R.add("plan.lookup_us", since_us(l0, Clock::now()));
        r0 = Clock::now();
        return plan;
      };
      const auto gather = [&](const dist::DistArray<Element>& a) {
        machine_us = since_us(r0, Clock::now());
        const auto g0 = Clock::now();
        auto v = tracer.span("dist.gather", "dist", op, root,
                             [&] { return a.gather(); });
        R.add("dist.gather_us", since_us(g0, Clock::now()));
        return v;
      };
      if (r.pack) {
        PackOptions opt;  // the request scheme: CMS
        const auto plan = lookup([&] {
          return cache.pack_plan(replay_, lay.dist, sizeof(Element), opt);
        });
        const auto rk = tracer.span("core.rank", "core", op, root, [&] {
          return rank_masks(replay_, plan->schedule, masks, false);
        });
        rank_us = since_us(r0, Clock::now());
        auto res = tracer.span("core.pack_execute", "core", op, root, [&] {
          return pup::detail::pack_execute<Element>(
              replay_, field, mask, rk[0], plan->options.scheme,
              plan->result_dist, nullptr, plan->options);
        });
        count = res.size;
        segments = segments_sent(res.counters);
        out = gather(res.vector);
      } else {
        UnpackOptions opt;  // the request scheme: CSS
        const auto& vec = lay.vectors[static_cast<std::size_t>(r.mask)];
        const auto plan = lookup([&] {
          return cache.unpack_plan(replay_, lay.dist, vec.dist(),
                                   sizeof(Element), opt);
        });
        const auto rk = tracer.span("core.rank", "core", op, root, [&] {
          return rank_masks(replay_, plan->schedule, masks, false);
        });
        rank_us = since_us(r0, Clock::now());
        auto res = tracer.span("core.unpack_execute", "core", op, root, [&] {
          return pup::detail::unpack_execute<Element>(
              replay_, vec, mask, field, rk[0], plan->options.scheme,
              plan->options);
        });
        count = res.size;
        segments = segments_sent(res.counters);
        out = gather(res.result);
      }
      const auto d0 = Clock::now();
      const std::uint64_t dg =
          tracer.span("dist.digest", "dist", op, root,
                      [&] { return service::result_digest(out, count); });
      R.add("dist.digest_us", since_us(d0, Clock::now()));
      tracer.close(root);
      if (dg != s.resp.digest) chk.fail("service: replay digest differs");
      // The machine part of the dispatch: ranking through redistribution.
      add_machine_layers(R, replay_, machine_us);
      R.add("core.rank_us", rank_us);
      R.add("core.selected", static_cast<double>(count));
      R.add("core.segments", static_cast<double>(segments));
      ++n;
    }
    for (const auto& [k, v] : R.sum) L.add(k, v / static_cast<double>(n));
  }

  /// The server's counters of the traced phase, and its attribution: queue
  /// time is the service layer; the server's exec time is split by the
  /// replay's per-layer self times (`self`, `root_us`); what neither covers
  /// (response hand-off) is unattributed.
  void per_layer(const PhaseStats& st,
                 const std::map<std::string, double>& self, double root_us,
                 std::map<std::string, double>& out) const override {
    (void)st;
    probe_.report(out);
    for (const auto& [k, v] : layers_) out[k] = v;
    const auto share = [&](const char* layer) {
      const auto it = self.find(layer);
      return it == self.end() || root_us <= 0 ? 0.0 : it->second / root_us;
    };
    out["self.service_us"] = mean_queue_;
    for (const char* layer : {"core", "plan", "dist"}) {
      out[std::string("self.") + layer + "_us"] = mean_exec_ * share(layer);
    }
    out["self.op_us"] =
        mean_latency_ - mean_queue_ - mean_exec_ * (1.0 - share("op"));
    out["trace.coverage_frac"] = 1.0 - out["self.op_us"] / mean_latency_;
  }

  std::uint64_t modeled_fingerprint() const override {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [key, entry] : sim_) {
      h = service::fnv1a(&key, sizeof(key), h);
      h = entry.fp.hash(h);
    }
    return h;
  }

 private:
  struct Layout {
    std::string name;
    dist::Distribution dist;
    std::vector<std::vector<mask_t>> host_masks;
    std::vector<dist::DistArray<mask_t>> masks;
    std::vector<std::vector<Element>> host_vectors;
    std::vector<dist::DistArray<Element>> vectors;
    std::vector<std::vector<Element>> fields;  // per tenant
    std::vector<dist::DistArray<Element>> field_arrays;
    std::vector<std::uint64_t> expect_pack, expect_unpack;  // [t*kPool+i]
  };
  struct Req {
    int tenant = 0;
    bool pack = true;
    int layout = 0;
    int mask = 0;
  };
  struct Served {
    std::size_t req;
    service::Response resp;
  };
  struct SimEntry {
    std::vector<double> samples;
    Fingerprint fp;
    bool mismatch = false;  // digest or modeled-repeat mismatch
  };

  static std::string tenant_name(int t) { return std::string(1, 'a' + t); }

  std::uint64_t expected(const Req& r) const {
    const Layout& L = layouts_[r.layout];
    const auto k = static_cast<std::size_t>(r.tenant * kPool + r.mask);
    return r.pack ? L.expect_pack[k] : L.expect_unpack[k];
  }

  std::future<service::Response> submit(const Req& r) {
    const Layout& L = layouts_[r.layout];
    const auto& mask = L.masks[static_cast<std::size_t>(r.mask)];
    if (r.pack) {
      service::PackRequest p;
      p.tenant = tenant_name(r.tenant);
      p.array = L.name;
      p.mask = mask;
      return server_->submit(std::move(p));
    }
    service::UnpackRequest u;
    u.tenant = tenant_name(r.tenant);
    u.field = L.name;
    u.mask = mask;
    u.vector = L.vectors[static_cast<std::size_t>(r.mask)];
    return server_->submit(std::move(u));
  }

  /// Direct pup::pack / pup::unpack calls, kSimReps per (op, layout,
  /// mask), with the requests' schemes on a pinned sim machine, each
  /// recording the busiest rank's local wall + modeled time.  Run before,
  /// between and after the segments of every timed phase, so the samples
  /// of an entry span the phase rather than one moment of host speed.
  /// Each round calls every
  /// entry once, so a slow moment of the host touches a few samples of
  /// every entry rather than all samples of a few.  An entry's first call
  /// is checked against the setup digest; later calls must repeat its
  /// modeled counts.
  void sim_pass() {
    for (int rep = 0; rep < kSimReps; ++rep) {
      for (const bool pack : {true, false}) {
        for (int l = 0; l < 2; ++l) {
          const Layout& L = layouts_[l];
          const auto& field = L.field_arrays[0];
          for (int i = 0; i < kPool; ++i) {
            const auto& mask = L.masks[static_cast<std::size_t>(i)];
            const auto& vec = L.vectors[static_cast<std::size_t>(i)];
            SimEntry& e = sim_[sim_key(Req{0, pack, l, i})];
            const bool first = e.samples.empty();
            replay_.reset_accounting();
            std::int64_t count = 0;
            std::vector<Element> got;
            if (pack) {
              auto res = pup::pack(replay_, field, mask, PackOptions{});
              count = res.size;
              if (first) got = res.vector.gather();
            } else {
              auto res = pup::unpack(replay_, vec, mask, field,
                                     UnpackOptions{});
              count = res.size;
              if (first) got = res.result.gather();
            }
            e.samples.push_back(replay_.max_total_us());
            const Fingerprint f = read_fingerprint(replay_, count);
            if (first) {
              e.fp = f;
              e.mismatch = service::result_digest(got, count) !=
                           expected(Req{0, pack, l, i});
            } else if (!e.fp.same(f)) {
              e.mismatch = true;
            }
          }
        }
      }
    }
  }

  static int sim_key(const Req& r) {
    return (r.pack ? 0 : 1) * 1000 + r.layout * 100 + r.mask;
  }

  /// The paper's simulated time of one request: the p75 of its entry's
  /// direct calls.  Singleton execution: fusion's saved PRS startups are
  /// not credited here.
  double sim_us(int key) const {
    return percentile(sim_.at(key).samples, kCentralQ);
  }

  sim::Machine replay_;
  SetupProbe probe_;
  Layout layouts_[2];
  std::vector<Req> schedule_;
  std::unique_ptr<service::Server> server_;
  std::size_t next_ = 0;
  Reservoir<Served> replay_sample_{kReplay};  // served requests to replay
  std::map<int, SimEntry> sim_;
  std::map<std::string, double> layers_;
  double mean_queue_ = 0.0, mean_exec_ = 0.0, mean_latency_ = 0.0;
  bool warmup_failed_ = false;
};

// ---------------------------------------------------------------------------
// The metric catalogue (BENCHMARK.json lists the same names; run.py checks
// that they agree).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"pack_p75_us", "us"},      {"pack_p90_us", "us"},
    {"unpack_p75_us", "us"},    {"unpack_p90_us", "us"},
    {"sim_pack_us", "us"},      {"sim_unpack_us", "us"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics.  A layer a workload does not exercise reports 0
/// (README.md lists which apply where).
constexpr MetricDef kPerLayer[] = {
    {"core.rank_us", "us"},        {"core.local_sum_us", "us"},
    {"core.local_max_us", "us"},   {"core.selected", "count"},
    {"core.segments", "count"},    {"coll.prs_msgs", "count"},
    {"coll.prs_bytes", "B"},       {"coll.m2m_msgs", "count"},
    {"coll.m2m_bytes", "B"},       {"coll.modeled_us", "us"},
    {"sim.overhead_us", "us"},     {"plan.compile_us", "us"},
    {"plan.lookup_us", "us"},      {"plan.hit_frac", "1"},
    {"plan.batch_size", "count"},  {"dist.scatter_us", "us"},
    {"dist.gather_us", "us"},      {"dist.digest_us", "us"},
    {"service.submit_us", "us"},   {"service.queue_us", "us"},
    {"service.exec_us", "us"},     {"service.fused_frac", "1"},
    {"service.batches", "count"},  {"service.reject_frac", "1"},
    {"self.op_us", "us"},          {"self.core_us", "us"},
    {"self.plan_us", "us"},        {"self.dist_us", "us"},
    {"self.service_us", "us"},     {"host.ref_us", "us"},
    {"trace.overhead_frac", "1"},  {"trace.coverage_frac", "1"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper16") return std::make_unique<Paper16>(seed);
  if (name == "service") return std::make_unique<ServiceWl>(seed);
  return nullptr;
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << "\"" << metrics[i].name
      << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
      << metrics[i].unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

std::map<int, std::vector<double>> by_case(const Reservoir<Sample>& v,
                                           double Sample::*f) {
  std::map<int, std::vector<double>> m;
  for (const Sample& x : v.items()) m[x.c].push_back(x.*f);
  return m;
}

/// Mean over cases of each case's q-quantile.
double case_mean_q(const Reservoir<Sample>& v, double Sample::*f, double q) {
  const auto m = by_case(v, f);
  double s = 0.0;
  for (const auto& [c, xs] : m) s += percentile(xs, q);
  return m.empty() ? 0.0 : s / static_cast<double>(m.size());
}

std::size_t fewest_in_a_case(const PhaseStats& st) {
  std::size_t n = SIZE_MAX;
  for (const auto* v : {&st.pack, &st.unpack}) {
    for (const auto& [c, xs] : by_case(*v, &Sample::us)) {
      n = std::min(n, xs.size());
    }
  }
  return n;
}

double case_geo_q(const Reservoir<Sample>& v, double Sample::*f, double q) {
  const auto m = by_case(v, f);
  double s = 0.0;
  for (const auto& [c, xs] : m) s += std::log(percentile(xs, q));
  return m.empty() ? 0.0 : std::exp(s / static_cast<double>(m.size()));
}

int run(const Args& args) {
  const auto epoch = Clock::now();
  const int cpu0 = sched_getcpu();
  const double ref0 = host_ref_us();

  // setup_s is the median of several set-ups, each building the whole
  // workload from scratch (inputs, scatter, machines, plans, server,
  // warm-up).  Half are made before the timed phase, the last of them is
  // measured, and half after it, so the median spans the run rather than
  // one moment of host speed.
  const int reps = args.trace ? 1 : 4;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto w = make_workload(args.workload, args.seed);
    setup_s.push_back(since_us(t0, Clock::now()) / 1e6);
    return w;
  };
  std::unique_ptr<Workload> wl;
  for (int r = 0; r < reps; ++r) {
    wl.reset();
    wl = set_up();
    if (!wl) {
      std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
  }

  Tracer tracer(epoch);
  PhaseStats untraced;
  if (args.trace) {
    // Half the time untraced, half traced: trace.overhead_frac compares
    // their throughput.
    untraced = wl->run_phase(args.seconds / 2, tracer);
    tracer.set_on(true);
  }
  PhaseStats st = wl->run_phase(args.trace ? args.seconds / 2 : args.seconds,
                                tracer);
  // After the timed phase, so any memory the program grows while serving
  // shows; the benchmark's own storage is fixed before the phase.
  const double rss = peak_rss_mb();
  Check chk;
  LayerSums check_layers;
  wl->check(chk, tracer, check_layers);
  tracer.set_on(false);
  const double ref1 = host_ref_us();
  const int cpu1 = sched_getcpu();

  const std::int64_t attempted = st.ops + untraced.ops;
  const std::int64_t failed = st.failed + untraced.failed + chk.failed;
  const bool correct = failed == 0 && attempted > 0;

  std::cout.precision(17);
  std::cout << "# perfbench workload=" << args.workload << " seed=" << args.seed
            << " trace=" << args.trace << " cpu_start=" << cpu0
            << " cpu_end=" << cpu1 << " host_ref_us_start=" << ref0
            << " host_ref_us_end=" << ref1 << "\n";
  std::cout << "# modeled_fingerprint=" << std::hex << wl->modeled_fingerprint()
            << std::dec << "\n";
  std::cout << "# samples pack=" << st.pack.items().size()
            << " unpack=" << st.unpack.items().size()
            << " fewest_in_a_case=" << fewest_in_a_case(st) << "\n";
  wl->diagnostics(std::cout);
  for (const std::string& n : chk.notes) std::cout << "# FAIL " << n << "\n";
  if (!args.trace) {
    wl.reset();
    for (int r = 0; r < reps; ++r) set_up();
  }
  std::cout << "# setup_s:";
  for (const double s : setup_s) std::cout << " " << s;
  std::cout << "\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::map<std::string, double> v;
    v["setup_s"] = median(setup_s);
    v["ops_per_s"] = static_cast<double>(st.ok_ops) / st.elapsed_s;
    v["pack_p75_us"] = case_geo_q(st.pack, &Sample::us, kCentralQ);
    v["pack_p90_us"] = case_geo_q(st.pack, &Sample::us, kTailQ);
    v["unpack_p75_us"] = case_geo_q(st.unpack, &Sample::us, kCentralQ);
    v["unpack_p90_us"] = case_geo_q(st.unpack, &Sample::us, kTailQ);
    v["sim_pack_us"] = case_mean_q(st.pack, &Sample::sim_us, kCentralQ);
    v["sim_unpack_us"] = case_mean_q(st.unpack, &Sample::sim_us, kCentralQ);
    v["peak_rss_mb"] = rss;
    for (const MetricDef& d : kEndToEnd) {
      metrics.push_back({d.name, v.at(d.name), d.unit});
    }
  } else {
    std::map<std::string, double> v;
    for (const MetricDef& d : kPerLayer) v[d.name] = 0.0;
    if (st.layer_ops > 0) {
      for (const auto& [k, s] : st.layers.sum) {
        v[k] = s / static_cast<double>(st.layer_ops);
      }
    }
    for (const auto& [k, s] : check_layers.sum) v[k] = s;
    std::map<std::string, double> self;
    double root_us = 0.0;
    tracer.self_times(self, root_us);
    wl->per_layer(st, self, root_us, v);
    v["host.ref_us"] = 0.5 * (ref0 + ref1);
    const double base = static_cast<double>(untraced.ok_ops) /
                        untraced.elapsed_s;
    const double traced = static_cast<double>(st.ok_ops) / st.elapsed_s;
    v["trace.overhead_frac"] = base > 0 ? 1.0 - traced / base : 0.0;
    for (const MetricDef& d : kPerLayer) {
      metrics.push_back({d.name, v.at(d.name), d.unit});
    }
    if (v.size() != std::size(kPerLayer)) {
      std::cerr << "perfbench: a per-layer metric is not in the catalogue\n";
      return 4;
    }
    if (!args.trace_out.empty()) tracer.write(args.trace_out);
  }
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload paper16|service --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
