// LRU cache of compiled PACK/UNPACK plans.
//
// Keyed by PlanKey (distribution signature, grid, block sizes, element
// width, scheme, PRS/M2M algorithm).  A hit returns the cached immutable
// plan (shared_ptr, so in-flight executions survive eviction and
// invalidation); a miss compiles and inserts, evicting the least recently
// used entry beyond capacity.  Cache events reach the machine's observers
// as typed point events (sim::Event::kPlanCacheHit / kPlanCacheMiss /
// kPlanCacheEvict / kPlanCacheInvalidate), alongside the counters in Stats.
//
// Plans describe Distribution *values*, not storage locations: when an
// array is redistributed to a new layout, plans compiled against the old
// layout no longer apply to it -- invalidate(machine, old_dist) drops
// every plan that references it through ANY distribution in its key: the
// source (mask/array) layout, a pack plan's pinned result layout, or an
// unpack plan's vector layout.
//
// Thread safety: every public operation is serialized on one internal
// mutex, so invalidate()/clear() may race lookups (and each other) from
// other threads without corrupting the LRU list/index or tearing Stats.
// Cache events are emitted while the cache mutex is held and rely on the
// machine's own observer serialization, matching the discipline of every
// other event source -- observers see a sequential event stream.  Note the
// compile-on-miss path drives the machine's collectives, which remain
// schedule-thread-only; concurrency is for metadata operations
// (invalidate/clear/size/stats), not for racing two compiles on one
// machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "plan/plan.hpp"

namespace pup::plan {

class PlanCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t invalidations = 0;
    /// Pressure: how full the cache is and how recently-used the entries
    /// it sheds were.  `entries`/`capacity` are filled by stats() from the
    /// live cache; `lookups` counts pack_plan/unpack_plan calls; an
    /// eviction's *age* is the number of lookups since the evicted entry
    /// was last touched (-1 until the first eviction).  A small
    /// last_eviction_age means the working set exceeds the capacity --
    /// the service reports these so a tenant can see cache pressure
    /// rather than infer it from miss spikes.
    std::size_t entries = 0;
    std::size_t capacity = 0;
    std::int64_t lookups = 0;
    std::int64_t last_eviction_age = -1;
    std::int64_t max_eviction_age = -1;
  };

  explicit PlanCache(std::size_t capacity = 64) : capacity_(capacity) {
    PUP_REQUIRE(capacity_ >= 1, "plan cache capacity must be at least 1");
  }

  /// Returns the cached PACK plan for (dist, elem_width, options,
  /// result_dist), compiling on miss.
  std::shared_ptr<const PackPlan> pack_plan(
      sim::Machine& machine, const dist::Distribution& dist, int elem_width,
      const PackOptions& options = {},
      std::optional<dist::Distribution> result_dist = std::nullopt);

  /// Returns the cached UNPACK plan, compiling on miss.
  std::shared_ptr<const UnpackPlan> unpack_plan(
      sim::Machine& machine, const dist::Distribution& mask_dist,
      const dist::Distribution& vector_dist, int elem_width,
      const UnpackOptions& options = {});

  /// Drops every plan that references `dist` through any distribution in
  /// its key -- source (mask/array) layout, pinned pack result layout, or
  /// unpack vector layout.  Call after redistributing an array away from
  /// `dist`.  Emits one Event::kPlanCacheInvalidate per dropped plan;
  /// returns the number dropped.
  std::size_t invalidate(sim::Machine& machine, const dist::Distribution& dist);

  /// Drops everything, with the same per-entry event and counter
  /// behavior as invalidate().
  void clear(sim::Machine& machine);

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  std::size_t capacity() const { return capacity_; }

  /// A consistent snapshot of the counters (by value: a reference could
  /// tear against a concurrent invalidate), with the pressure fields
  /// (entries/capacity) filled from the live cache.
  Stats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.entries = entries_.size();
    s.capacity = capacity_;
    return s;
  }

 private:
  struct Entry {
    PlanKey key;
    std::shared_ptr<const PackPlan> pack;
    std::shared_ptr<const UnpackPlan> unpack;
    /// Stats::lookups value when this entry was last inserted or hit;
    /// eviction age = lookups now - last_used.
    std::int64_t last_used = 0;
    /// True when `d` is any of the distributions this entry's key was
    /// compiled against (source layout, pinned pack result layout, unpack
    /// vector layout) -- the full set invalidate() must honor.
    bool references(const dist::Distribution& d) const {
      if (pack) {
        return pack->dist == d ||
               (pack->result_dist.has_value() && *pack->result_dist == d);
      }
      return unpack->dist == d || unpack->vector_dist == d;
    }
  };
  using EntryList = std::list<Entry>;

  /// Moves the entry to the front (most recently used) and returns it, or
  /// nullptr on miss.  Emits the hit/miss event.  Caller holds mu_.
  Entry* touch(sim::Machine& machine, const PlanKey& key);
  /// Caller holds mu_.
  void insert(sim::Machine& machine, Entry entry);

  /// Serializes all public operations (see the header comment).
  mutable std::mutex mu_;
  std::size_t capacity_;
  EntryList entries_;  // front = most recently used
  std::map<PlanKey, EntryList::iterator> index_;
  Stats stats_;
};

}  // namespace pup::plan
