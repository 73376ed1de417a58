// Property tests for Distribution::for_each_run and the run-based
// DistArray::scatter/gather built on it.
//
// The per-element placement math (owner() + local_linear()) is the
// reference: every run must agree with it element by element, the runs must
// tile the global index space exactly once in increasing order, and a
// scatter followed by a gather must round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "dist/dist_array.hpp"
#include "dist/distribution.hpp"

namespace pup::dist {
namespace {

struct Case {
  std::string name;
  Distribution dist;
};

std::vector<Case> cases() {
  std::vector<Case> c;
  // 1-D.
  c.push_back({"1d_cyclic_W1", Distribution::cyclic(Shape({10}),
                                                    ProcessGrid({4}))});
  c.push_back({"1d_W3_ragged", Distribution::block_cyclic(
                                   Shape({10}), ProcessGrid({4}), 3)});
  c.push_back({"1d_block_ragged", Distribution::block1d(10, 4)});
  c.push_back({"1d_block_divisible", Distribution::block1d(32, 4)});
  c.push_back({"1d_W_ge_N", Distribution::block_cyclic(Shape({10}),
                                                       ProcessGrid({4}), 16)});
  c.push_back({"1d_zero_extent", Distribution::block1d(0, 4)});
  c.push_back({"1d_P1", Distribution::block_cyclic(Shape({9}),
                                                   ProcessGrid({1}), 2)});
  // 2-D.
  c.push_back({"2d_divisible", Distribution::block_cyclic(
                                   Shape({12, 6}), ProcessGrid({3, 2}), 2)});
  c.push_back({"2d_ragged", Distribution::block_cyclic(
                                Shape({7, 5}), ProcessGrid({2, 3}), 2)});
  c.push_back({"2d_cyclic", Distribution::cyclic(Shape({10, 9}),
                                                 ProcessGrid({2, 3}))});
  c.push_back({"2d_block", Distribution::block(Shape({9, 7}),
                                               ProcessGrid({2, 2}))});
  c.push_back({"2d_mixed_blocks", Distribution(Shape({11, 6}),
                                               ProcessGrid({3, 2}), {4, 1})});
  c.push_back({"2d_W_ge_N", Distribution::block_cyclic(
                                Shape({3, 4}), ProcessGrid({2, 2}), 8)});
  c.push_back({"2d_zero_outer", Distribution::block_cyclic(
                                    Shape({4, 0}), ProcessGrid({2, 2}), 1)});
  c.push_back({"2d_P1", Distribution::block_cyclic(Shape({5, 3}),
                                                   ProcessGrid({1, 1}), 2)});
  // 3-D.
  c.push_back({"3d_divisible", Distribution::block_cyclic(
                                   Shape({8, 4, 4}), ProcessGrid({2, 2, 2}),
                                   2)});
  c.push_back({"3d_ragged", Distribution(Shape({5, 4, 3}),
                                         ProcessGrid({2, 2, 1}), {2, 3, 1})});
  c.push_back({"3d_cyclic", Distribution::cyclic(Shape({3, 5, 2}),
                                                 ProcessGrid({2, 1, 2}))});
  c.push_back({"3d_zero_inner", Distribution::block_cyclic(
                                    Shape({0, 3, 2}), ProcessGrid({2, 1, 1}),
                                    1)});
  return c;
}

struct RunRecord {
  index_t global;
  int rank;
  index_t local;
  index_t length;
};

std::vector<RunRecord> runs_of(const Distribution& d) {
  std::vector<RunRecord> runs;
  d.for_each_run([&](index_t g, int r, index_t l, index_t n) {
    runs.push_back(RunRecord{g, r, l, n});
  });
  return runs;
}

TEST(DistRuns, CoverEveryElementOnceInIncreasingOrder) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Distribution& d = c.dist;
    index_t next = 0;
    for (const RunRecord& run : runs_of(d)) {
      EXPECT_EQ(run.global, next) << "gap or overlap before this run";
      EXPECT_GE(run.length, 1);
      next = run.global + run.length;
    }
    EXPECT_EQ(next, d.global().size());
  }
}

TEST(DistRuns, RunIsAtMostOneDimensionZeroBlock) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Distribution& d = c.dist;
    const index_t n0 = d.global().extent(0);
    const index_t w0 = d.dim(0).block();
    for (const RunRecord& run : runs_of(d)) {
      const index_t first = run.global % n0;
      const index_t last = (run.global + run.length - 1) % n0;
      EXPECT_LE(first, last) << "run crosses a row boundary";
      EXPECT_EQ(first / w0, last / w0) << "run crosses a block boundary";
    }
  }
}

TEST(DistRuns, MatchPerElementPlacement) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Distribution& d = c.dist;
    std::vector<index_t> per_rank(static_cast<std::size_t>(d.nprocs()), 0);
    for (const RunRecord& run : runs_of(d)) {
      ASSERT_GE(run.rank, 0);
      ASSERT_LT(run.rank, d.nprocs());
      for (index_t i = 0; i < run.length; ++i) {
        const std::vector<index_t> gidx = d.global().multi(run.global + i);
        EXPECT_EQ(run.rank, d.owner(gidx)) << "element " << run.global + i;
        EXPECT_EQ(run.local + i, d.local_linear(gidx))
            << "element " << run.global + i;
      }
      per_rank[static_cast<std::size_t>(run.rank)] += run.length;
    }
    for (int r = 0; r < d.nprocs(); ++r) {
      EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], d.local_size(r))
          << "rank " << r;
    }
  }
}

TEST(DistRuns, ScatterGatherRoundTripAndAtAgree) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Distribution& d = c.dist;
    std::vector<std::int64_t> host(static_cast<std::size_t>(d.global().size()));
    std::iota(host.begin(), host.end(), std::int64_t{1000});
    const auto arr = DistArray<std::int64_t>::scatter(d, host);
    EXPECT_EQ(arr.gather(), host);
    std::vector<index_t> gidx(static_cast<std::size_t>(d.rank()), 0);
    for (index_t lin = 0; lin < d.global().size(); ++lin) {
      EXPECT_EQ(arr.at(gidx), host[static_cast<std::size_t>(lin)])
          << "element " << lin;
      next_index(d.global(), gidx);
    }
  }
}

}  // namespace
}  // namespace pup::dist
