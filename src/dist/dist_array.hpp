// A distributed dense array: a Distribution plus per-processor local
// storage.
//
// Local storage is row-major over the processor's local shape, tile-major
// within each dimension (see BlockCyclicDim).  scatter()/gather() move data
// between a global host buffer and the distributed representation.
//
// Contract for scatter()/gather(): they are on hot paths (request set-up,
// and any caller that wants a result on the host), so callers must know
// their cost.  They charge no modeled time -- the data movement is
// host-side, outside the simulated machine.  Each call walks the
// distribution's contiguous runs (Distribution::for_each_run) and does one
// std::copy_n per run: O(N) element copies plus O(rank) index math per run,
// with one per-call allocation of per-rank strides and none per element.
// A run is at most one dimension-0 block, so a cyclic (W_0 = 1) layout
// pays the index math per element.  That cost lands in real wall-clock
// latency, never in modeled time or digests.  Code that only needs to read
// the result in global order (the service's digest) walks the runs itself
// instead of gathering.
#pragma once

#include <algorithm>
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
    arr.dist_.for_each_run([&](index_t g, int r, index_t l, index_t n) {
      std::copy_n(global.begin() + g, n,
                  arr.locals_[static_cast<std::size_t>(r)].begin() + l);
    });
    return arr;
  }

  /// Collects the distributed data back into a global row-major buffer.
  std::vector<T> gather() const {
    std::vector<T> global(static_cast<std::size_t>(dist_.global().size()));
    dist_.for_each_run([&](index_t g, int r, index_t l, index_t n) {
      std::copy_n(locals_[static_cast<std::size_t>(r)].begin() + l, n,
                  global.begin() + g);
    });
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
  Distribution dist_;
  std::vector<std::vector<T>> locals_;
};

}  // namespace pup::dist
