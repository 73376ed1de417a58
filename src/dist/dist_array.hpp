// A distributed dense array: a Distribution plus per-processor local
// storage.
//
// Local storage is row-major over the processor's local shape, tile-major
// within each dimension (see BlockCyclicDim).  scatter()/gather() move data
// between a global host buffer and the distributed representation.
//
// Contract for scatter()/gather(): they are on the serving hot path (the
// service layer gathers every request's result to digest it), so callers
// must know their cost.  They charge no modeled time -- the data movement
// is host-side, outside the simulated machine -- and each call does O(N)
// host-side index math for an N-element array: one owner and one local
// offset computation per element, each O(rank) in the array's rank and
// each allocating small index vectors.  That cost lands in real wall-clock
// latency, never in modeled time or digests.
#pragma once

#include <span>
#include <vector>

#include "dist/distribution.hpp"
#include "support/check.hpp"

namespace pup::dist {

template <typename T>
class DistArray {
 public:
  DistArray() = default;

  /// Allocates zero-initialized local storage for every processor.
  explicit DistArray(Distribution dist) : dist_(std::move(dist)) {
    locals_.resize(static_cast<std::size_t>(dist_.nprocs()));
    for (int r = 0; r < dist_.nprocs(); ++r) {
      locals_[static_cast<std::size_t>(r)].resize(
          static_cast<std::size_t>(dist_.local_size(r)));
    }
  }

  /// Builds a distributed array from a global row-major buffer.
  static DistArray scatter(Distribution dist, std::span<const T> global) {
    PUP_REQUIRE(static_cast<index_t>(global.size()) == dist.global().size(),
                "global buffer size " << global.size()
                                      << " != array size "
                                      << dist.global().size());
    DistArray arr(std::move(dist));
    const Shape& shape = arr.dist_.global();
    std::vector<index_t> gidx(static_cast<std::size_t>(shape.rank()), 0);
    for (index_t lin = 0; lin < shape.size(); ++lin) {
      const auto [owner, local] = place_cached(arr.dist_, gidx);
      arr.locals_[static_cast<std::size_t>(owner)]
                 [static_cast<std::size_t>(local)] =
          global[static_cast<std::size_t>(lin)];
      if (lin + 1 < shape.size()) next_index(shape, gidx);
    }
    return arr;
  }

  /// Collects the distributed data back into a global row-major buffer.
  std::vector<T> gather() const {
    const Shape& shape = dist_.global();
    std::vector<T> global(static_cast<std::size_t>(shape.size()));
    std::vector<index_t> gidx(static_cast<std::size_t>(shape.rank()), 0);
    for (index_t lin = 0; lin < shape.size(); ++lin) {
      const auto [owner, local] = place_cached(dist_, gidx);
      global[static_cast<std::size_t>(lin)] =
          locals_[static_cast<std::size_t>(owner)]
                 [static_cast<std::size_t>(local)];
      if (lin + 1 < shape.size()) next_index(shape, gidx);
    }
    return global;
  }

  const Distribution& dist() const { return dist_; }

  std::span<T> local(int rank) {
    PUP_REQUIRE(rank >= 0 && rank < dist_.nprocs(), "rank out of range");
    return locals_[static_cast<std::size_t>(rank)];
  }
  std::span<const T> local(int rank) const {
    PUP_REQUIRE(rank >= 0 && rank < dist_.nprocs(), "rank out of range");
    return locals_[static_cast<std::size_t>(rank)];
  }

  /// Element access by global multi-index (test utility).
  T& at(std::span<const index_t> gidx) {
    const int owner = dist_.owner(gidx);
    return locals_[static_cast<std::size_t>(owner)]
                  [static_cast<std::size_t>(dist_.local_linear(gidx))];
  }
  const T& at(std::span<const index_t> gidx) const {
    const int owner = dist_.owner(gidx);
    return locals_[static_cast<std::size_t>(owner)]
                  [static_cast<std::size_t>(dist_.local_linear(gidx))];
  }

 private:
  // Placement of a multi-index, avoiding the Shape allocation inside
  // Distribution::place for the scatter/gather loops.
  static Distribution::Placement place_cached(const Distribution& d,
                                              std::span<const index_t> gidx) {
    const int owner = d.owner(gidx);
    // local_linear recomputes the owner internally, so every element pays
    // the owner math twice; this is part of the per-call O(N) cost that
    // the scatter()/gather() contract above states.
    return Distribution::Placement{owner, d.local_linear(gidx)};
  }

  Distribution dist_;
  std::vector<std::vector<T>> locals_;
};

}  // namespace pup::dist
