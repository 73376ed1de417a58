#include "dist/distribution.hpp"

namespace pup::dist {

Distribution::Distribution(Shape global, ProcessGrid grid,
                           std::vector<index_t> blocks)
    : global_(std::move(global)), grid_(std::move(grid)) {
  PUP_REQUIRE(global_.rank() == grid_.rank(),
              "array rank " << global_.rank() << " != grid rank "
                            << grid_.rank());
  PUP_REQUIRE(static_cast<int>(blocks.size()) == global_.rank(),
              "need one block size per dimension");
  dims_.reserve(blocks.size());
  for (int k = 0; k < global_.rank(); ++k) {
    dims_.emplace_back(global_.extent(k), grid_.extent(k),
                       blocks[static_cast<std::size_t>(k)]);
  }
}

Distribution Distribution::block_cyclic(Shape global, ProcessGrid grid,
                                        index_t block) {
  std::vector<index_t> blocks(static_cast<std::size_t>(global.rank()), block);
  return Distribution(std::move(global), std::move(grid), std::move(blocks));
}

Distribution Distribution::cyclic(Shape global, ProcessGrid grid) {
  return block_cyclic(std::move(global), std::move(grid), 1);
}

Distribution Distribution::block(Shape global, ProcessGrid grid) {
  std::vector<index_t> blocks;
  blocks.reserve(static_cast<std::size_t>(global.rank()));
  for (int k = 0; k < global.rank(); ++k) {
    const index_t n = global.extent(k);
    const index_t p = grid.extent(k);
    // Zero-extent dimensions (e.g. an empty PACK result) still need a valid
    // block size.
    blocks.push_back(n == 0 ? 1 : (n + p - 1) / p);
  }
  return Distribution(std::move(global), std::move(grid), std::move(blocks));
}

Distribution Distribution::block1d(index_t extent, int nprocs) {
  return block(Shape({extent}), ProcessGrid({nprocs}));
}

bool Distribution::divisible() const {
  for (const auto& d : dims_) {
    if (!d.divisible()) return false;
  }
  return true;
}

Shape Distribution::local_shape(int rank) const {
  PUP_REQUIRE(rank >= 0 && rank < nprocs(), "rank out of range");
  std::vector<index_t> ext;
  ext.reserve(dims_.size());
  for (int k = 0; k < this->rank(); ++k) {
    const int coord = static_cast<int>(grid_.coord_of(rank, k));
    ext.push_back(dim(k).local_extent_on(coord));
  }
  return Shape(std::move(ext));
}

int Distribution::owner(std::span<const index_t> gidx) const {
  PUP_DCHECK(static_cast<int>(gidx.size()) == rank(), "rank mismatch");
  index_t r = 0;
  index_t grid_stride = 1;
  for (int k = 0; k < rank(); ++k) {
    r += dim(k).owner(gidx[static_cast<std::size_t>(k)]) * grid_stride;
    grid_stride *= grid_.extent(k);
  }
  return static_cast<int>(r);
}

index_t Distribution::local_linear(std::span<const index_t> gidx) const {
  const int r = owner(gidx);
  index_t l = 0;
  index_t stride = 1;  // row-major over the owner's local shape
  for (int k = 0; k < rank(); ++k) {
    l += dim(k).local_index(gidx[static_cast<std::size_t>(k)]) * stride;
    stride *= dim(k).local_extent_on(static_cast<int>(grid_.coord_of(r, k)));
  }
  return l;
}

std::vector<index_t> Distribution::global_of_local(int rank, index_t l) const {
  const Shape local = local_shape(rank);
  std::vector<index_t> lidx = local.multi(l);
  std::vector<index_t> gidx(lidx.size());
  for (int k = 0; k < this->rank(); ++k) {
    const int coord = static_cast<int>(grid_.coord_of(rank, k));
    gidx[static_cast<std::size_t>(k)] =
        dim(k).global_index(coord, lidx[static_cast<std::size_t>(k)]);
  }
  return gidx;
}

}  // namespace pup::dist
