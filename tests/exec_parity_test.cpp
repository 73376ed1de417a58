// Execution-policy contract (sim/exec_policy.hpp): a machine running its
// local phases sequentially and one running them on the work-sharing pool
// (ExecPolicy::threaded(4)) must be observably identical in every modeled
// quantity --
//   * all five collectives produce bit-identical payloads and TraceDigests
//     (message/byte counts, modeled charges) under both policies;
//   * PACK and UNPACK round-trip against the serial oracle identically;
//   * a seeded fault schedule (drops, duplicates, delays, truncation)
//     recovers through the reliable layer with the same digest under both
//     policies -- injection happens in Machine::post on the schedule thread;
//   * operation-level recovery from a mid-PRS fail-stop kill rolls back
//     through the machine's mailbox snapshot/restore and re-executes to the
//     same clean digest under both policies;
//   * epoch checkpoint/rollback restores queued messages in the same
//     arrival order under both policies.
// Only real wall clock may differ.  The tests pin the policy per machine so
// they behave the same whatever PUP_THREADS says.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <tuple>
#include <vector>

#include "analysis/determinism.hpp"
#include "coll/alltoallv.hpp"
#include "coll/broadcast.hpp"
#include "coll/prefix_reduction_sum.hpp"
#include "coll/reduce.hpp"
#include "coll/scan.hpp"
#include "core/api.hpp"
#include "plan/resilient.hpp"
#include "sim/fault.hpp"
#include "support/rng.hpp"

namespace pup {
namespace {

using coll::Group;
using Vec = std::vector<std::int64_t>;
using Bufs = std::vector<Vec>;

constexpr int kP = 8;
const char* const kFaultSpec =
    "seed=1234 drop=0.05 dup=0.03 delay=0.04 ticks=2 trunc=0.03";

const sim::ExecPolicy kSequential = sim::ExecPolicy::sequential();
const sim::ExecPolicy kThreaded = sim::ExecPolicy::threaded(4);

sim::Machine make_machine(sim::ExecPolicy exec) {
  return sim::Machine(kP, sim::CostModel{10.0, 0.1, 0.01},
                      sim::Topology::crossbar(kP), exec);
}

Bufs make_inputs(int p, std::size_t m, std::uint64_t seed) {
  Bufs bufs(static_cast<std::size_t>(p));
  Xoshiro256 rng(seed);
  for (auto& v : bufs) {
    v.resize(m);
    for (auto& x : v) x = static_cast<std::int64_t>(rng.next_below(1000));
  }
  return bufs;
}

/// One pass over every collective; returns all result payloads flattened
/// so policies can be compared bit for bit.
Vec run_all_collectives(sim::Machine& m) {
  const Group g = Group::world(kP);
  Vec flat;
  auto absorb = [&flat](const Bufs& bufs) {
    for (const auto& v : bufs) flat.insert(flat.end(), v.begin(), v.end());
  };

  {  // many-to-many, both schedules
    for (coll::M2MSchedule sched :
         {coll::M2MSchedule::kLinearPermutation, coll::M2MSchedule::kNaive}) {
      std::vector<std::vector<Vec>> send(kP, std::vector<Vec>(kP));
      Xoshiro256 rng(42);
      for (int i = 0; i < kP; ++i) {
        for (int j = 0; j < kP; ++j) {
          auto& v =
              send[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          v.resize(rng.next_below(6));
          for (auto& x : v) x = static_cast<std::int64_t>(rng.next_below(100));
        }
      }
      auto recv =
          coll::alltoallv_typed<std::int64_t>(m, g, std::move(send), sched);
      for (const auto& row : recv) absorb(row);
    }
  }
  {  // binomial broadcast
    Bufs bufs(kP);
    bufs[3] = {11, 22, 33, 44};
    coll::broadcast(m, g, 3, bufs);
    absorb(bufs);
  }
  {  // allreduce
    Bufs bufs = make_inputs(kP, 17, 99);
    coll::allreduce_sum(m, g, bufs);
    absorb(bufs);
  }
  {  // dissemination exscan
    Bufs bufs = make_inputs(kP, 9, 7);
    coll::exscan_sum(m, g, bufs);
    absorb(bufs);
  }
  {  // prefix-reduction-sum, direct and split
    for (coll::PrsAlgorithm alg :
         {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit}) {
      Bufs prefix = make_inputs(kP, 12, 55);
      Bufs total(kP);
      coll::prefix_reduction_sum(m, g, alg, prefix, total);
      absorb(prefix);
      absorb(total);
    }
  }
  return flat;
}

struct RunResult {
  Vec results;
  analysis::TraceDigest digest;
};

RunResult run_collectives(sim::ExecPolicy exec, const char* fault_spec) {
  sim::Machine m = make_machine(exec);
  m.set_fault_plan(fault_spec == nullptr ? nullptr
                                         : sim::FaultPlan::parse(fault_spec));
  RunResult out;
  out.results = run_all_collectives(m);
  EXPECT_TRUE(m.mailboxes_empty());
  out.digest = analysis::digest(m);
  return out;
}

TEST(ExecParity, CollectivesDigestIdenticalOnCleanNetwork) {
  const RunResult seq = run_collectives(kSequential, nullptr);
  const RunResult thr = run_collectives(kThreaded, nullptr);
  EXPECT_EQ(seq.results, thr.results);
  EXPECT_EQ(seq.digest, thr.digest)
      << analysis::diff_digests(seq.digest, thr.digest);
}

TEST(ExecParity, CollectivesDigestIdenticalUnderSeededFaults) {
  // Fault injection lives in Machine::post on the schedule thread, so a
  // seeded schedule of drops/dups/delays/truncations -- and the reliable
  // layer's recovery from it -- must replay identically under both
  // policies.
  const RunResult seq = run_collectives(kSequential, kFaultSpec);
  const RunResult thr = run_collectives(kThreaded, kFaultSpec);
  EXPECT_EQ(seq.results, thr.results);
  EXPECT_EQ(seq.digest, thr.digest)
      << analysis::diff_digests(seq.digest, thr.digest);
}

struct PupResult {
  Vec packed;
  Vec restored;
  analysis::TraceDigest digest;
};

PupResult run_pack_unpack(sim::ExecPolicy exec, const char* fault_spec) {
  sim::Machine m = make_machine(exec);
  m.set_fault_plan(fault_spec == nullptr ? nullptr
                                         : sim::FaultPlan::parse(fault_spec));
  const dist::index_t n = 2048;
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({kP}), 16);
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 1);
  const auto gm = random_mask(n, 0.4, 0x5eed);
  auto array = dist::DistArray<std::int64_t>::scatter(d, data);
  auto mask = dist::DistArray<mask_t>::scatter(d, gm);

  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  auto packed = pack(m, array, mask, opt);
  auto restored = unpack(m, packed.vector, mask, array);

  PupResult out;
  out.packed = packed.vector.gather();
  out.restored = restored.result.gather();
  EXPECT_EQ(out.packed, serial_pack<std::int64_t>(data, gm));
  EXPECT_EQ(out.restored, data);
  out.digest = analysis::digest(m);
  return out;
}

TEST(ExecParity, PackUnpackRoundTripIdenticalUnderBothPolicies) {
  for (const char* spec : {static_cast<const char*>(nullptr), kFaultSpec}) {
    const PupResult seq = run_pack_unpack(kSequential, spec);
    const PupResult thr = run_pack_unpack(kThreaded, spec);
    EXPECT_EQ(seq.packed, thr.packed);
    EXPECT_EQ(seq.restored, thr.restored);
    EXPECT_EQ(seq.digest, thr.digest)
        << analysis::diff_digests(seq.digest, thr.digest);
  }
}

TEST(ExecParity, ResilientRecoveryFromKillIdenticalUnderBothPolicies) {
  // A fail-stop kill mid-PRS forces the resilient executor through the
  // whole recovery machinery: heartbeat detection, epoch rollback (the
  // machine's mailbox snapshot/restore), revive, fault-free re-execution.
  auto run = [](sim::ExecPolicy policy) {
    sim::Machine m = make_machine(policy);
    const dist::index_t n = 2048;
    auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                              dist::ProcessGrid({kP}), 16);
    std::vector<std::int64_t> data(static_cast<std::size_t>(n));
    std::iota(data.begin(), data.end(), 1);
    const auto gm = random_mask(n, 0.4, 0x1337);
    auto array = dist::DistArray<std::int64_t>::scatter(d, data);
    auto mask = dist::DistArray<mask_t>::scatter(d, gm);
    PackOptions opt;
    opt.scheme = PackScheme::kCompactMessage;
    const plan::PackPlan plan =
        plan::compile_pack_plan(m, d, sizeof(std::int64_t), opt);
    m.set_fault_plan(sim::FaultPlan::parse("seed=11 kill=2 after=9 phase=prs"));
    RecoveryPolicy pol;
    pol.max_restarts = 3;
    plan::ResilientExecutor exec(m, pol);
    auto got = exec.pack(plan, array, mask);
    EXPECT_EQ(got.vector.gather(), serial_pack<std::int64_t>(data, gm));
    EXPECT_EQ(exec.stats().restarts, 1);
    EXPECT_EQ(m.epochs_rolled_back(), 1);
    return std::make_tuple(got.vector.gather(), analysis::digest(m));
  };
  const auto seq = run(kSequential);
  const auto thr = run(kThreaded);
  EXPECT_EQ(std::get<0>(seq), std::get<0>(thr));
  EXPECT_EQ(std::get<1>(seq), std::get<1>(thr))
      << analysis::diff_digests(std::get<1>(seq), std::get<1>(thr));
}

TEST(ExecParity, EpochRollbackRestoresQueuedMessagesInArrivalOrder) {
  // Exercises mailbox snapshot/restore directly: messages queued at
  // checkpoint time must come back in the same per-destination arrival
  // order after a rollback under either policy.
  auto run = [](sim::ExecPolicy exec) {
    sim::Machine m = make_machine(exec);
    auto send = [&m](int src, int dst, int tag, std::int64_t x) {
      m.post(sim::Message{src, dst, tag, sim::to_payload<std::int64_t>({&x, 1})},
             sim::Category::kM2M);
    };
    send(0, 3, 7, 100);
    send(1, 3, 7, 200);  // same (dst, tag), different src: order matters
    send(2, 3, 9, 300);
    send(0, 1, 7, 400);
    const auto cp = m.checkpoint_epoch();
    // Drain rank 3 completely, then roll back; the queue must be restored.
    while (m.receive(3).has_value()) {
    }
    EXPECT_FALSE(m.has_message(3));
    m.rollback_epoch(*cp);
    std::vector<std::tuple<int, int, std::int64_t>> seen;
    for (int rank : {1, 3}) {
      while (auto got = m.receive(rank)) {
        seen.emplace_back(got->src, got->tag,
                          sim::from_payload<std::int64_t>(got->payload)[0]);
      }
    }
    EXPECT_TRUE(m.mailboxes_empty());
    return seen;
  };
  const auto seq = run(kSequential);
  const auto thr = run(kThreaded);
  EXPECT_EQ(seq, thr);
  ASSERT_EQ(seq.size(), 4u);
  // Wildcard receive respects global arrival order per destination.
  EXPECT_EQ(seq[1], (std::tuple<int, int, std::int64_t>{0, 7, 100}));
  EXPECT_EQ(seq[2], (std::tuple<int, int, std::int64_t>{1, 7, 200}));
}

}  // namespace
}  // namespace pup
