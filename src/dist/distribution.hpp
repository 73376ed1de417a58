// Whole-array distribution: a global Shape mapped onto a ProcessGrid with a
// block-cyclic (W_{d-1}, ..., W_0) partitioning (paper, Section 3).
//
// Local storage on each processor is row-major over its per-dimension local
// extents, with each dimension stored tile-major (see BlockCyclicDim).  When
// the paper's divisibility assumptions hold every processor has the same
// local shape (L_{d-1}, ..., L_0) with L_k = T_k * W_k; the class also
// supports ragged (non-divisible) extents, which the block-distributed
// result vector of PACK needs.
#pragma once

#include <algorithm>
#include <vector>

#include "dist/block_cyclic.hpp"
#include "dist/layout.hpp"
#include "dist/process_grid.hpp"
#include "support/check.hpp"

namespace pup::dist {

class Distribution {
 public:
  Distribution() = default;

  /// General block-cyclic distribution; `blocks[k]` is W_k.
  Distribution(Shape global, ProcessGrid grid, std::vector<index_t> blocks);

  /// Convenience: block-cyclic with the same block size on every dimension.
  static Distribution block_cyclic(Shape global, ProcessGrid grid,
                                   index_t block);
  /// Cyclic distribution (W_k = 1 on every dimension).
  static Distribution cyclic(Shape global, ProcessGrid grid);
  /// Block distribution (W_k = ceil(N_k / P_k)).
  static Distribution block(Shape global, ProcessGrid grid);
  /// One-dimensional block distribution of `extent` elements over `nprocs`
  /// processors (the layout of PACK's result vector).
  static Distribution block1d(index_t extent, int nprocs);

  const Shape& global() const { return global_; }
  const ProcessGrid& grid() const { return grid_; }
  int rank() const { return global_.rank(); }
  int nprocs() const { return grid_.nprocs(); }
  const BlockCyclicDim& dim(int k) const {
    PUP_DCHECK(k >= 0 && k < rank(), "dimension out of range");
    return dims_[static_cast<std::size_t>(k)];
  }

  /// True when every dimension satisfies P_k*W_k | N_k (the paper's
  /// assumption; required by the ranking algorithm).
  bool divisible() const;

  /// Local shape of processor `rank` (identical across processors iff
  /// divisible()).
  Shape local_shape(int rank) const;

  /// Local element count on processor `rank`.
  index_t local_size(int rank) const { return local_shape(rank).size(); }

  /// Owner rank of the element at global multi-index `gidx`.
  int owner(std::span<const index_t> gidx) const;

  /// Local linear index (within owner's storage) of global multi-index.
  index_t local_linear(std::span<const index_t> gidx) const;

  /// Calls fn(global_linear, rank, local_offset, length) once per
  /// contiguous run, in increasing global row-major order.  A run is the
  /// part of one dimension-0 block inside one row: `length` elements at
  /// consecutive global linear indices from `global_linear`, stored at
  /// consecutive local indices from `local_offset` on processor `rank`.
  /// The runs cover every element exactly once.  Owner coordinates and
  /// local indices of the outer dimensions are computed once per row and
  /// per-rank local strides once per call; nothing is allocated per run or
  /// per element.
  template <typename Fn>
  void for_each_run(Fn&& fn) const;

  /// Global multi-index of the element at local linear index `l` on
  /// processor `rank` (inverse of local_linear for that owner).
  std::vector<index_t> global_of_local(int rank, index_t l) const;

  bool operator==(const Distribution& o) const {
    return global_ == o.global_ && grid_ == o.grid_ && dims_ == o.dims_;
  }

 private:
  Shape global_;
  ProcessGrid grid_;
  std::vector<BlockCyclicDim> dims_;
};

template <typename Fn>
void Distribution::for_each_run(Fn&& fn) const {
  const index_t total = global_.size();
  if (total == 0) return;
  const std::size_t d = dims_.size();
  // Local storage is row-major over each rank's (possibly ragged) local
  // shape, so every rank has its own strides.
  std::vector<index_t> strides(static_cast<std::size_t>(nprocs()) * d);
  for (int r = 0; r < nprocs(); ++r) {
    index_t acc = 1;
    for (std::size_t k = 0; k < d; ++k) {
      strides[static_cast<std::size_t>(r) * d + k] = acc;
      acc *= dims_[k].local_extent_on(
          static_cast<int>(grid_.coord_of(r, static_cast<int>(k))));
    }
  }
  // Row state of the outer dimensions (k >= 1): global index and its local
  // index on the owner.
  std::vector<index_t> outer(d, 0);
  std::vector<index_t> outer_local(d, 0);
  const BlockCyclicDim& d0 = dims_[0];
  const index_t n0 = d0.extent();
  const index_t w0 = d0.block();
  for (index_t row = 0; row < total; row += n0) {
    // Rank of the row's dimension-0 coordinate 0 owner; coordinate c0
    // adds c0 (grid coordinate 0 varies fastest in the rank numbering).
    index_t row_rank = 0;
    index_t grid_stride = d0.nprocs();
    for (std::size_t k = 1; k < d; ++k) {
      row_rank += dims_[k].owner(outer[k]) * grid_stride;
      outer_local[k] = dims_[k].local_index(outer[k]);
      grid_stride *= dims_[k].nprocs();
    }
    int c0 = 0;
    index_t l0 = 0;  // local index of the block's first element on dim 0
    for (index_t g0 = 0; g0 < n0; g0 += w0) {
      const int r = static_cast<int>(row_rank) + c0;
      const index_t* s = &strides[static_cast<std::size_t>(r) * d];
      index_t off = l0;
      for (std::size_t k = 1; k < d; ++k) off += outer_local[k] * s[k];
      fn(row + g0, r, off, std::min(w0, n0 - g0));
      if (++c0 == d0.nprocs()) {
        c0 = 0;
        l0 += w0;
      }
    }
    for (std::size_t k = 1; k < d; ++k) {
      if (++outer[k] < dims_[k].extent()) break;
      outer[k] = 0;
    }
  }
}

}  // namespace pup::dist
