// Determinism-checker tests: the library's operations replay bit-for-bit,
// and deliberately nondeterministic operations are caught with a useful
// first-difference report.
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "analysis/determinism.hpp"
#include "analysis/protocol_validator.hpp"
#include "core/api.hpp"

namespace pup {
namespace {

const sim::CostModel kCost{10.0, 0.05, 0.01};

TEST(Determinism, PackReplaysIdentically) {
  const dist::index_t n = 64;
  auto report = analysis::check_determinism(4, kCost, [&](sim::Machine& m) {
    auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                              dist::ProcessGrid({4}), 4);
    std::vector<int> data(static_cast<std::size_t>(n));
    std::iota(data.begin(), data.end(), 0);
    auto mask = random_mask(n, 0.5, 17);
    auto a = dist::DistArray<int>::scatter(d, data);
    auto mk = dist::DistArray<mask_t>::scatter(d, mask);
    (void)pack(m, a, mk);
  });
  EXPECT_TRUE(report.deterministic) << report.diff;
  EXPECT_EQ(report.diff, "");
  EXPECT_GT(report.first.messages, 0);
  EXPECT_EQ(report.first, report.second);
}

TEST(Determinism, CollectivesReplayIdentically) {
  auto report = analysis::check_determinism(4, kCost, [](sim::Machine& m) {
    const auto g = coll::Group::world(4);
    std::vector<std::vector<int>> bufs(4);
    for (int r = 0; r < 4; ++r) bufs[r] = {r, r * r};
    coll::allreduce_sum(m, g, bufs);

    std::vector<std::vector<std::vector<int>>> send(4);
    for (int src = 0; src < 4; ++src) {
      send[src].resize(4);
      for (int dst = 0; dst < 4; ++dst) {
        send[src][dst].assign(static_cast<std::size_t>(src + 1), dst);
      }
    }
    (void)coll::alltoallv_typed(m, g, std::move(send));
  });
  EXPECT_TRUE(report.deterministic) << report.diff;
}

TEST(Determinism, CatchesPayloadThatVariesAcrossRuns) {
  int run = 0;
  auto report = analysis::check_determinism(2, kCost, [&](sim::Machine& m) {
    ++run;
    // A payload whose size depends on invocation count: the digest's byte
    // totals differ between the two replays.
    std::vector<std::byte> payload(static_cast<std::size_t>(8 * run));
    m.post(sim::Message{0, 1, 1, std::move(payload)}, sim::Category::kM2M);
    (void)m.receive_required(1, 0, 1);
  });
  EXPECT_FALSE(report.deterministic);
  EXPECT_NE(report.diff, "");
  EXPECT_NE(report.first, report.second);
}

TEST(Determinism, CatchesChargeThatVariesAcrossRuns) {
  int run = 0;
  auto report = analysis::check_determinism(2, kCost, [&](sim::Machine& m) {
    ++run;
    m.charge(0, sim::Category::kPrs, run == 1 ? 1.0 : 2.0);
  });
  EXPECT_FALSE(report.deterministic);
  EXPECT_NE(report.diff, "");
}

TEST(Determinism, DigestExcludesRealWallClockTime) {
  // local_phase charges real wall-clock time, which is never reproducible;
  // the digest must ignore it so identical logic replays identically.
  auto report = analysis::check_determinism(2, kCost, [](sim::Machine& m) {
    m.local_phase([](int rank) {
      volatile long sink = 0;
      for (long i = 0; i < 10000 * (rank + 1); ++i) sink = sink + i;
    });
  });
  EXPECT_TRUE(report.deterministic) << report.diff;
}

TEST(Determinism, ThreadedExecutionMatchesSequentialDigest) {
  // The threaded execution policy may only change wall-clock time: the
  // digest (messages, bytes, modeled charges) and the packed data must be
  // bit-identical to a sequential run of the same operation.
  const dist::index_t n = 4096;
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({8}), 64);
  std::vector<int> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(n, 0.5, 23);

  auto run = [&](sim::Machine& m) {
    auto a = dist::DistArray<int>::scatter(d, data);
    auto mk = dist::DistArray<mask_t>::scatter(d, gm);
    PackOptions opt;
    opt.scheme = PackScheme::kAuto;
    auto r = pack(m, a, mk, opt);
    return std::make_pair(analysis::digest(m), r.vector.gather());
  };

  sim::Machine seq(8, kCost, sim::Topology::crossbar(8),
                   sim::ExecPolicy::sequential());
  sim::Machine par(8, kCost, sim::Topology::crossbar(8),
                   sim::ExecPolicy::threaded(4));
  const auto [dseq, vseq] = run(seq);
  const auto [dpar, vpar] = run(par);
  EXPECT_EQ(dseq, dpar) << analysis::diff_digests(dseq, dpar);
  EXPECT_EQ(vseq, vpar);
  EXPECT_GT(dseq.messages, 0);
}

TEST(Determinism, MachineDigestAgreesWithProtocolValidator) {
  sim::Machine machine(4, kCost);
  analysis::ProtocolValidator validator(machine);

  const auto g = coll::Group::world(4);
  std::vector<std::vector<int>> bufs(4);
  for (int r = 0; r < 4; ++r) bufs[r] = {r};
  coll::broadcast(machine, g, 0, bufs);

  // The digest is read off the machine and the validator observes the same
  // run: every message the machine traced, the validator saw posted.
  const auto digest = analysis::digest(machine);
  EXPECT_GT(digest.messages, 0);
  EXPECT_EQ(digest.messages, validator.stats().posts);
  validator.finish();
  EXPECT_TRUE(validator.ok()) << validator.report();
}

}  // namespace
}  // namespace pup
