// Plan execution: single-request wrappers and the batched PACK executor.
//
// pack_batch() is the payoff of plan compilation under the two-level cost
// model.  The d intermediate ranking steps are startup(tau)-dominated at
// coarse grain: each is a vector prefix-reduction-sum whose payload (the
// base-rank arrays PS_i/RS_i) is tiny compared to the per-message startup.
// Fusing B requests concatenates their PS_i payloads into one PRS per
// dimension, paying one tau charge per round instead of B while the mu
// (per-byte) term is unchanged -- the int64 element-wise sums commute with
// concatenation, so every request's ranking is element-identical to an
// independent call.  The redistribution stage (whose cost is volume- not
// startup-dominated) then runs per request.
//
// Local compute inside both stages flows through the vectorized kernel
// layer (core/kernels/, selected by PUP_SIMD) via rank_masks() and
// pack_execute()/unpack_execute(); compiled plans never bypass it, so
// plan-cached and direct executions hit identical kernels and digests.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/pack.hpp"
#include "core/unpack.hpp"
#include "plan/plan.hpp"

namespace pup::plan {

namespace detail {

template <typename T>
void check_pack_request(const PackPlan& plan, const dist::DistArray<T>& array,
                        const dist::DistArray<mask_t>& mask) {
  PUP_REQUIRE(sizeof(T) == static_cast<std::size_t>(plan.elem_width),
              "element width " << sizeof(T) << " does not match the plan's "
                               << plan.elem_width);
  PUP_REQUIRE(array.dist() == plan.dist && mask.dist() == plan.dist,
              "array/mask are not laid out by the plan's distribution");
}

}  // namespace detail

/// PACK B requests, fusing their PRS rounds (one tau per round instead of
/// B; see the header comment).  *masks[b] selects from *arrays[b]; all
/// share the plan's distribution.  results[b] is element-identical to an
/// independent pack of request b.  Requests are passed by pointer, as to
/// rank_masks(), so callers never copy their arrays to fuse them.
template <typename T>
std::vector<PackResult<T>> pack_batch(
    sim::Machine& machine, const PackPlan& plan,
    std::span<const dist::DistArray<mask_t>* const> masks,
    std::span<const dist::DistArray<T>* const> arrays) {
  PUP_REQUIRE(masks.size() == arrays.size(),
              "pack_batch: " << masks.size() << " masks vs " << arrays.size()
                             << " arrays");
  PUP_REQUIRE(!masks.empty(), "pack_batch needs at least one request");
  for (std::size_t b = 0; b < masks.size(); ++b) {
    detail::check_pack_request(plan, *arrays[b], *masks[b]);
  }
  const bool sss = plan.options.scheme == PackScheme::kSimpleStorage;
  std::vector<RankingResult> rankings =
      rank_masks(machine, plan.schedule, masks, sss);
  std::vector<PackResult<T>> results;
  results.reserve(masks.size());
  for (std::size_t b = 0; b < masks.size(); ++b) {
    results.push_back(pup::detail::pack_execute<T>(
        machine, *arrays[b], *masks[b], rankings[b], plan.options.scheme,
        plan.result_dist, nullptr, plan.options));
  }
  return results;
}

/// PACK one request with a compiled plan: a batch of one, so ranking runs
/// off the plan's hoisted schedule and no geometry is recomputed.  Events
/// and results are bit-identical to pup::pack() with the plan's (concrete)
/// options.
template <typename T>
PackResult<T> pack_with_plan(sim::Machine& machine, const PackPlan& plan,
                             const dist::DistArray<T>& array,
                             const dist::DistArray<mask_t>& mask) {
  const dist::DistArray<mask_t>* m = &mask;
  const dist::DistArray<T>* a = &array;
  return std::move(pack_batch<T>(machine, plan, {&m, 1}, {&a, 1})[0]);
}

/// UNPACK one request with a compiled plan.
template <typename T>
UnpackResult<T> unpack_with_plan(sim::Machine& machine,
                                 const UnpackPlan& plan,
                                 const dist::DistArray<T>& v,
                                 const dist::DistArray<mask_t>& mask,
                                 const dist::DistArray<T>& field) {
  PUP_REQUIRE(sizeof(T) == static_cast<std::size_t>(plan.elem_width),
              "element width " << sizeof(T) << " does not match the plan's "
                               << plan.elem_width);
  PUP_REQUIRE(mask.dist() == plan.dist && field.dist() == plan.dist,
              "mask/field are not laid out by the plan's distribution");
  PUP_REQUIRE(v.dist() == plan.vector_dist,
              "vector is not laid out by the plan's vector distribution");
  const bool sss = plan.options.scheme == UnpackScheme::kSimpleStorage;
  const dist::DistArray<mask_t>* one = &mask;
  std::vector<RankingResult> rankings = rank_masks(
      machine, plan.schedule,
      std::span<const dist::DistArray<mask_t>* const>(&one, 1), sss);
  return pup::detail::unpack_execute<T>(machine, v, mask, field, rankings[0],
                                        plan.options.scheme, plan.options);
}

}  // namespace pup::plan
