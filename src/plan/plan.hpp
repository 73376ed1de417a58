// Plan compiler for PACK/UNPACK (ROADMAP: serving repeated masked traffic).
//
// Nothing in the ranking stage's setup depends on the mask *values* -- only
// on the distribution, grid, block sizes, and options.  A plan hoists all of
// that mask-independent structure out of the per-call path into an immutable
// object compiled once and executed many times:
//
//   * the ranking schedule (slice geometry C/W_0, per-dimension level sizes
//     and W_{i+1} x T_i segment boundaries, PRS groups and the concrete
//     per-dimension PRS algorithm) -- see core/ranking.hpp;
//   * the SSS record stride (d+2 words per selected element);
//   * the result-vector layout when fixed up front (the `for_each_dest_run`
//     decomposition is a pure function of that layout; the default
//     block1d(Size, P) layout depends on the mask's true count and is
//     derived at execute time).
//
// Plans require *concrete* schemes: kAuto inspects the mask's density and
// is therefore resolved per call, before compilation (see PlanCache or
// detail::resolve_pack_scheme).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/ranking.hpp"
#include "core/schemes.hpp"
#include "dist/distribution.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"

namespace pup::plan {

/// Cache key: a flat, order-deterministic encoding of everything a compiled
/// plan depends on -- operation kind, global extents, grid extents, block
/// sizes, element width, scheme, and the PRS/M2M algorithm knobs.  Two
/// plans with equal keys are interchangeable.
struct PlanKey {
  std::vector<std::int64_t> words;
  friend bool operator==(const PlanKey&, const PlanKey&) = default;
  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;
};

PlanKey pack_plan_key(const dist::Distribution& dist, int elem_width,
                      const PackOptions& options,
                      const std::optional<dist::Distribution>& result_dist);

PlanKey unpack_plan_key(const dist::Distribution& mask_dist,
                        const dist::Distribution& vector_dist, int elem_width,
                        const UnpackOptions& options);

/// An immutable compiled PACK plan.  `schedule` carries the hoisted ranking
/// structure; `options.scheme` is always concrete.
struct PackPlan {
  dist::Distribution dist;        ///< array/mask layout
  RankingSchedule schedule;
  PackOptions options;
  std::optional<dist::Distribution> result_dist;  ///< fixed result layout
  int elem_width = 0;             ///< sizeof the packed element type
  PlanKey key;
};

/// An immutable compiled UNPACK plan.
struct UnpackPlan {
  dist::Distribution dist;         ///< mask/field/result layout
  dist::Distribution vector_dist;  ///< input vector layout
  RankingSchedule schedule;
  UnpackOptions options;
  int elem_width = 0;
  PlanKey key;
};

/// Compiles a PACK plan for arrays laid out by `dist` with sizeof(T) ==
/// elem_width.  `options.scheme` must be concrete (not kAuto); the optional
/// `result_dist` fixes the result-vector layout (rank one, and its extent
/// bounds the packable count).  Runs inside a "plan.compile" phase.
PackPlan compile_pack_plan(sim::Machine& machine,
                           const dist::Distribution& dist, int elem_width,
                           const PackOptions& options = {},
                           std::optional<dist::Distribution> result_dist =
                               std::nullopt);

/// Compiles an UNPACK plan: `mask_dist` lays out the mask/field/result,
/// `vector_dist` the rank-one input vector.
UnpackPlan compile_unpack_plan(sim::Machine& machine,
                               const dist::Distribution& mask_dist,
                               const dist::Distribution& vector_dist,
                               int elem_width,
                               const UnpackOptions& options = {});

}  // namespace pup::plan
