// Unit and property tests for whole-array distributions.
#include <gtest/gtest.h>

#include "dist/distribution.hpp"
#include "support/check.hpp"

namespace pup::dist {
namespace {

TEST(Distribution, LocalShapeUnderDivisibility) {
  auto d = Distribution::block_cyclic(Shape({16, 8}), ProcessGrid({4, 2}), 2);
  EXPECT_TRUE(d.divisible());
  for (int r = 0; r < 8; ++r) {
    const Shape local = d.local_shape(r);
    EXPECT_EQ(local.extent(0), 4);  // L_0 = 16/4
    EXPECT_EQ(local.extent(1), 4);  // L_1 = 8/2
  }
}

TEST(Distribution, OwnerAndPlacementConsistent) {
  auto d = Distribution::block_cyclic(Shape({12, 6}), ProcessGrid({3, 2}), 2);
  const Shape& g = d.global();
  std::vector<index_t> idx(2, 0);
  std::vector<index_t> counts(static_cast<std::size_t>(d.nprocs()), 0);
  for (index_t lin = 0; lin < g.size(); ++lin) {
    // Placement of the linear index, decoded independently of the odometer.
    const std::vector<index_t> decoded = g.multi(lin);
    const int owner = d.owner(decoded);
    const index_t local = d.local_linear(decoded);
    EXPECT_EQ(owner, d.owner(idx));
    EXPECT_EQ(local, d.local_linear(idx));
    // Inverse mapping.
    auto gidx = d.global_of_local(owner, local);
    EXPECT_EQ(gidx, idx);
    ++counts[static_cast<std::size_t>(owner)];
    if (lin + 1 < g.size()) next_index(g, idx);
  }
  for (int r = 0; r < d.nprocs(); ++r) {
    EXPECT_EQ(counts[static_cast<std::size_t>(r)], d.local_size(r));
  }
}

TEST(Distribution, PlacementIsBijective) {
  auto d = Distribution::block_cyclic(Shape({10, 9}), ProcessGrid({2, 3}), 1);
  std::vector<std::vector<bool>> hit(static_cast<std::size_t>(d.nprocs()));
  for (int r = 0; r < d.nprocs(); ++r) {
    hit[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(d.local_size(r)), false);
  }
  for (index_t lin = 0; lin < d.global().size(); ++lin) {
    const std::vector<index_t> gidx = d.global().multi(lin);
    const int owner = d.owner(gidx);
    const index_t local = d.local_linear(gidx);
    auto slot = hit[static_cast<std::size_t>(owner)]
                   [static_cast<std::size_t>(local)];
    EXPECT_FALSE(slot) << "two globals map to one local slot";
    hit[static_cast<std::size_t>(owner)][static_cast<std::size_t>(local)] =
        true;
  }
  for (const auto& v : hit) {
    for (bool b : v) EXPECT_TRUE(b);
  }
}

TEST(Distribution, CyclicAndBlockFactories) {
  auto c = Distribution::cyclic(Shape({12}), ProcessGrid({4}));
  EXPECT_EQ(c.dim(0).block(), 1);
  auto b = Distribution::block(Shape({12}), ProcessGrid({4}));
  EXPECT_EQ(b.dim(0).block(), 3);
  auto b2 = Distribution::block(Shape({13}), ProcessGrid({4}));
  EXPECT_EQ(b2.dim(0).block(), 4);  // ceil(13/4)
}

TEST(Distribution, Block1dRaggedLastProcessor) {
  auto d = Distribution::block1d(10, 4);  // B = 3: sizes 3,3,3,1
  EXPECT_EQ(d.local_size(0), 3);
  EXPECT_EQ(d.local_size(1), 3);
  EXPECT_EQ(d.local_size(2), 3);
  EXPECT_EQ(d.local_size(3), 1);
}

TEST(Distribution, Block1dZeroExtent) {
  auto d = Distribution::block1d(0, 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(d.local_size(r), 0);
}

TEST(Distribution, RankMismatchThrows) {
  EXPECT_THROW(
      Distribution(Shape({4, 4}), ProcessGrid({2}), {1, 1}),
      ContractError);
  EXPECT_THROW(Distribution(Shape({4}), ProcessGrid({2}), {1, 1}),
               ContractError);
}

TEST(Distribution, DivisibleDetectsViolations) {
  EXPECT_FALSE(
      Distribution::block_cyclic(Shape({10}), ProcessGrid({4}), 2).divisible());
  EXPECT_TRUE(
      Distribution::block_cyclic(Shape({16}), ProcessGrid({4}), 2).divisible());
}

}  // namespace
}  // namespace pup::dist
