// Unit tests for the simulated machine substrate: cost model, topology,
// mailboxes, message envelopes, time accounting, tracing, and the threaded
// execution policy.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/exec_policy.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"
#include "support/env.hpp"

namespace pup::sim {
namespace {

TEST(CostModel, MessageTimeIsTauPlusMuM) {
  CostModel c{10.0, 0.5, 0.1};
  EXPECT_DOUBLE_EQ(c.message_us(0), 10.0);
  EXPECT_DOUBLE_EQ(c.message_us(100), 10.0 + 50.0);
}

TEST(CostModel, PresetsAreSane) {
  const auto cm5 = CostModel::cm5();
  EXPECT_GT(cm5.tau_us, 0);
  EXPECT_GT(cm5.mu_us_per_byte, 0);
  const auto cal = CostModel::calibrated_cm5();
  EXPECT_GT(cal.tau_us, 0);
  // Calibration scales tau and mu by the same factor.
  EXPECT_NEAR(cal.tau_us / cm5.tau_us, cal.mu_us_per_byte / cm5.mu_us_per_byte,
              1e-9);
}

TEST(CostModel, CalibratedCm5IsOnePinnedReading) {
  // The same three values on every call, run and host, bit for bit.
  const auto cal = CostModel::calibrated_cm5();
  EXPECT_EQ(cal.tau_us, 0.081272516250610355);
  EXPECT_EQ(cal.mu_us_per_byte, 0.00011340351104736328);
  EXPECT_EQ(cal.delta_us, 0.00028350877761840822);
}

TEST(Topology, CrossbarIsDistanceIndependent) {
  auto t = Topology::crossbar(8);
  CostModel c{1.0, 0.0, 0.0};
  EXPECT_EQ(t.hops(0, 7), 1);
  EXPECT_EQ(t.hops(3, 3), 0);
  EXPECT_DOUBLE_EQ(t.message_us(c, 0, 7, 100), 1.0);
  EXPECT_DOUBLE_EQ(t.message_us(c, 2, 2, 100), 0.0);
}

TEST(Topology, HypercubeHopsArePopcount) {
  auto t = Topology::hypercube(8);
  EXPECT_EQ(t.hops(0, 7), 3);
  EXPECT_EQ(t.hops(1, 3), 1);
  EXPECT_EQ(t.hops(5, 5), 0);
}

TEST(Topology, HypercubeRequiresPowerOfTwo) {
  EXPECT_THROW(Topology::hypercube(6), pup::ContractError);
}

TEST(Topology, Mesh2DUsesManhattanDistance) {
  auto t = Topology::mesh2d(16);  // 4x4
  EXPECT_EQ(t.hops(0, 15), 6);    // (0,0) -> (3,3)
  EXPECT_EQ(t.hops(0, 1), 1);
  EXPECT_EQ(t.hops(0, 4), 1);
}

TEST(Topology, MeshAddsPerHopLatency) {
  auto t = Topology::mesh2d(16);
  t.set_per_hop_us(2.0);
  CostModel c{10.0, 0.0, 0.0};
  // 0 -> 15: 6 hops, so 5 extra hop charges.
  EXPECT_DOUBLE_EQ(t.message_us(c, 0, 15, 0), 10.0 + 5 * 2.0);
}

TEST(Message, PayloadRoundTrip) {
  std::vector<std::int64_t> vals = {1, -2, 3};
  auto bytes = to_payload<std::int64_t>(vals);
  EXPECT_EQ(bytes.size(), 24u);
  EXPECT_EQ(from_payload<std::int64_t>(bytes), vals);
}

TEST(Message, PayloadSizeMismatchThrows) {
  std::vector<std::byte> bytes(7);
  EXPECT_THROW(from_payload<std::int32_t>(bytes), pup::ContractError);
}

TEST(Mailbox, FifoPerSenderAndTag) {
  Mailbox mb;
  mb.push(Message{0, 1, 5, to_payload<int>(std::vector<int>{1})});
  mb.push(Message{2, 1, 5, to_payload<int>(std::vector<int>{2})});
  mb.push(Message{0, 1, 5, to_payload<int>(std::vector<int>{3})});

  auto a = mb.pop(0, 5);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(from_payload<int>(a->payload)[0], 1);
  auto b = mb.pop(0, 5);
  EXPECT_EQ(from_payload<int>(b->payload)[0], 3);
  auto c = mb.pop();
  EXPECT_EQ(c->src, 2);
  EXPECT_TRUE(mb.empty());
}

TEST(Mailbox, WildcardsAndMisses) {
  Mailbox mb;
  EXPECT_FALSE(mb.pop().has_value());
  mb.push(Message{3, 0, 9, {}});
  EXPECT_FALSE(mb.pop(3, 8).has_value());
  EXPECT_FALSE(mb.pop(2, 9).has_value());
  EXPECT_TRUE(mb.has(3, kAnyTag));
  EXPECT_TRUE(mb.pop(kAnySource, 9).has_value());
}

TEST(Machine, LocalPhaseRunsEveryRankInOrder) {
  // Rank order is a *sequential-policy* guarantee; pin the policy so the
  // test holds even when PUP_THREADS is set in the environment.
  Machine m(4, CostModel{1, 1, 1}, Topology::crossbar(4),
            ExecPolicy::sequential());
  std::vector<int> order;
  m.local_phase([&](int rank) { order.push_back(rank); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(m.times(r).local_us(), 0.0);
  }
}

TEST(Machine, PostReceiveAndTrace) {
  Machine m(3, CostModel{1, 1, 1});
  m.post(Message{0, 2, 7, to_payload<int>(std::vector<int>{42})},
         Category::kM2M);
  EXPECT_TRUE(m.has_message(2, 0, 7));
  EXPECT_FALSE(m.has_message(1));
  EXPECT_EQ(m.trace().messages(), 1);
  EXPECT_EQ(m.trace().messages_in(Category::kM2M), 1);
  EXPECT_EQ(m.trace().bytes(), 4);
  EXPECT_EQ(m.trace().sent_bytes(0), 4);
  EXPECT_EQ(m.trace().recv_bytes(2), 4);

  auto msg = m.receive_required(2, 0, 7);
  EXPECT_EQ(from_payload<int>(msg.payload)[0], 42);
  EXPECT_TRUE(m.mailboxes_empty());
}

TEST(Machine, ReceiveRequiredThrowsWhenMissing) {
  Machine m(2, CostModel{1, 1, 1});
  EXPECT_THROW(m.receive_required(0), pup::ContractError);
}

TEST(Machine, ChargeAndMaxAccounting) {
  Machine m(3, CostModel{1, 1, 1});
  m.charge(0, Category::kPrs, 5.0);
  m.charge(1, Category::kPrs, 8.0);
  m.charge(1, Category::kM2M, 2.0);
  EXPECT_DOUBLE_EQ(m.max_us(Category::kPrs), 8.0);
  EXPECT_DOUBLE_EQ(m.max_total_us(), 10.0);
  m.reset_accounting();
  EXPECT_DOUBLE_EQ(m.max_total_us(), 0.0);
  EXPECT_EQ(m.trace().messages(), 0);
}

TEST(Machine, ModeledChargesPerRankAndCategory) {
  Machine m(3, CostModel{1, 1, 1});
  m.charge(0, Category::kPrs, 5.0);
  m.charge(1, Category::kPrs, 8.0);
  m.charge(1, Category::kM2M, 2.0);
  m.charge(1, Category::kM2M, 0.5);
  m.local_phase([](int) {});  // real wall-clock never reaches the books
  EXPECT_EQ(m.modeled_us(0, Category::kPrs), 5.0);
  EXPECT_EQ(m.modeled_us(1, Category::kPrs), 8.0);
  EXPECT_EQ(m.modeled_us(1, Category::kM2M), 2.5);
  EXPECT_EQ(m.modeled_us(2, Category::kM2M), 0.0);
  EXPECT_EQ(m.modeled_us(0, Category::kLocal), 0.0);
  EXPECT_EQ(m.modeled_total_us(), 15.5);

  // A rollback restores the books of the checkpoint.
  const auto cp = m.checkpoint_epoch();
  m.charge(0, Category::kPrs, 100.0);
  m.charge(2, Category::kRedist, 1.0);
  EXPECT_EQ(m.modeled_us(2, Category::kRedist), 1.0);
  m.rollback_epoch(*cp);
  EXPECT_EQ(m.modeled_us(0, Category::kPrs), 5.0);
  EXPECT_EQ(m.modeled_us(2, Category::kRedist), 0.0);
  EXPECT_EQ(m.modeled_total_us(), 15.5);

  m.reset_accounting();
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < kNumCategories; ++c) {
      EXPECT_EQ(m.modeled_us(r, static_cast<Category>(c)), 0.0);
    }
  }
  EXPECT_EQ(m.modeled_total_us(), 0.0);
}

TEST(Machine, ResetWithPendingMessagesThrows) {
  Machine m(2, CostModel{1, 1, 1});
  m.post(Message{0, 1, 0, {}}, Category::kLocal);
  EXPECT_THROW(m.reset_accounting(), pup::ContractError);
}

TEST(Machine, BadRankThrows) {
  Machine m(2, CostModel{1, 1, 1});
  EXPECT_THROW(m.post(Message{0, 5, 0, {}}, Category::kLocal),
               pup::ContractError);
  EXPECT_THROW(m.receive(-1), pup::ContractError);
  EXPECT_THROW(Machine(0), pup::ContractError);
}

Machine make_threaded(int nprocs, int threads) {
  return Machine(nprocs, CostModel{1, 1, 1}, Topology::crossbar(nprocs),
                 ExecPolicy::threaded(threads));
}

TEST(ExecPolicy, FactoriesAndValidation) {
  EXPECT_FALSE(ExecPolicy::sequential().is_threaded());
  EXPECT_TRUE(ExecPolicy::threaded(4).is_threaded());
  EXPECT_FALSE(ExecPolicy::threaded(1).is_threaded());
  EXPECT_THROW(ExecPolicy::threaded(0), pup::ContractError);
  EXPECT_THROW(ExecPolicy::threaded(-3), pup::ContractError);
}

TEST(ExecPolicy, FromEnvParsesLeniently) {
  // Save and restore PUP_THREADS: the threaded ctest registrations set it
  // for the whole process, and this test must not clobber that.  from_env
  // consults the read-once snapshot (support/env.hpp), so every mutation
  // must be followed by an explicit refresh.
  const char* prev = std::getenv("PUP_THREADS");
  const std::string saved = prev ? prev : "";
  auto set_threads = [](const char* v) {
    setenv("PUP_THREADS", v, 1);
    pup::support::Env::refresh();
  };

  unsetenv("PUP_THREADS");
  pup::support::Env::refresh();
  EXPECT_FALSE(ExecPolicy::from_env().is_threaded());
  set_threads("");
  EXPECT_FALSE(ExecPolicy::from_env().is_threaded());
  set_threads("4");
  EXPECT_EQ(ExecPolicy::from_env().threads, 4);
  set_threads("1");
  EXPECT_FALSE(ExecPolicy::from_env().is_threaded());
  // Lenient fallbacks: junk, negatives, and trailing garbage never throw
  // and never enable threading.
  for (const char* bad : {"abc", "-2", "0", "4x", "1e3"}) {
    set_threads(bad);
    EXPECT_FALSE(ExecPolicy::from_env().is_threaded()) << bad;
  }
  // strtol skips leading whitespace, so a padded value still parses.
  set_threads(" 4");
  EXPECT_EQ(ExecPolicy::from_env().threads, 4);
  // Absurd values are capped, not rejected.
  set_threads("999999");
  EXPECT_LE(ExecPolicy::from_env().threads, 1024);

  if (prev != nullptr) {
    setenv("PUP_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("PUP_THREADS");
  }
  pup::support::Env::refresh();
}

TEST(MachineThreaded, LocalPhaseRunsEveryRankExactlyOnce) {
  Machine m = make_threaded(8, 4);
  std::vector<std::atomic<int>> hits(8);
  m.local_phase([&](int rank) {
    hits[static_cast<std::size_t>(rank)].fetch_add(1);
  });
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(hits[static_cast<std::size_t>(r)].load(), 1);
    EXPECT_GT(m.times(r).local_us(), 0.0);
  }
}

TEST(MachineThreaded, PoolIsReusedAcrossManyPhases) {
  Machine m = make_threaded(4, 4);
  std::vector<std::atomic<long>> sums(4);
  for (int iter = 0; iter < 100; ++iter) {
    m.local_phase([&](int rank) {
      sums[static_cast<std::size_t>(rank)].fetch_add(rank + 1);
    });
  }
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(sums[static_cast<std::size_t>(r)].load(), 100L * (r + 1));
  }
}

TEST(MachineThreaded, LowestRankExceptionWinsDeterministically) {
  Machine m = make_threaded(8, 4);
  // Several ranks throw; the caller must always see rank 2's error no
  // matter how the pool schedules the bodies.
  for (int iter = 0; iter < 20; ++iter) {
    try {
      m.local_phase([&](int rank) {
        if (rank == 2 || rank == 5 || rank == 7) {
          throw std::runtime_error("rank " + std::to_string(rank));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank 2");
    }
    // The machine stays usable after a throwing phase.
    m.local_phase([](int) {});
  }
}

TEST(MachineThreaded, MorePoolThreadsThanRanksIsFine) {
  Machine m = make_threaded(2, 16);
  std::vector<std::atomic<int>> hits(2);
  m.local_phase([&](int rank) {
    hits[static_cast<std::size_t>(rank)].fetch_add(1);
  });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(MachineThreaded, SingleProcessorFallsBackToSequential) {
  // nprocs == 1 never engages the pool regardless of policy.
  Machine m(1, CostModel{1, 1, 1}, Topology::crossbar(1),
            ExecPolicy::threaded(8));
  int hits = 0;
  m.local_phase([&](int) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(MachineThreaded, ChargesFromConcurrentRanksAllLand) {
  Machine m = make_threaded(8, 4);
  m.local_phase([&](int rank) { m.charge(rank, Category::kPrs, 1.0); });
  for (int r = 0; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(m.times(r)[Category::kPrs], 1.0);
  }
}

TEST(MachineThreaded, ModeledChargesMatchSequential) {
  Machine seq(8, CostModel{1, 1, 1}, Topology::crossbar(8),
              ExecPolicy::sequential());
  Machine par = make_threaded(8, 4);
  for (Machine* m : {&seq, &par}) {
    for (int pass = 0; pass < 3; ++pass) {
      m->local_phase([&](int rank) {
        m->charge(rank, Category::kPrs, 0.1 * (rank + 1));
        m->charge(rank, static_cast<Category>(1 + (rank + pass) % 3),
                  0.3 * pass + rank);
      });
    }
  }
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < kNumCategories; ++c) {
      const auto cat = static_cast<Category>(c);
      EXPECT_EQ(par.modeled_us(r, cat), seq.modeled_us(r, cat))
          << "rank " << r << " category " << c;
    }
  }
  EXPECT_EQ(par.modeled_total_us(), seq.modeled_total_us());
  EXPECT_GT(seq.modeled_total_us(), 0.0);
}

TEST(Event, NamesAreUniqueAndStable) {
  // Observers, logs and docs refer to events by these dotted names; they
  // are the strings the events carried when they were phase annotations.
  const std::vector<std::string> expected = {
      "fault.kill", "fault.dead", "fault.drop", "fault.duplicate",
      "fault.delay", "fault.truncate", "fault.delay.expired",
      "epoch.checkpoint", "epoch.rollback", "epoch.boundary",
      "cancel.trip",
      "reliable.corrupt", "reliable.dedup", "reliable.heartbeat",
      "reliable.nak", "reliable.retransmit", "reliable.drain",
      "plan.cache.hit", "plan.cache.miss", "plan.cache.evict",
      "plan.cache.invalidate", "plan.cancel.rollback",
      "service.cache.hit", "service.cache.miss", "service.brownout.enter",
      "service.brownout.exit", "service.watchdog.trip",
      "service.deadline.miss", "service.cancelled"};
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(kNumEvents));
  std::set<std::string> seen;
  for (int i = 0; i < kNumEvents; ++i) {
    const std::string name = event_name(static_cast<Event>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name, expected[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

TEST(Machine, EveryObserverSeesEventsInAttachOrder) {
  struct Log final : MachineObserver {
    std::vector<std::string>* out;
    std::string tag;
    Log(std::vector<std::string>* o, std::string t)
        : out(o), tag(std::move(t)) {}
    void on_event(Event e) override {
      out->push_back(tag + ":" + event_name(e));
    }
  };
  Machine m(2);
  std::vector<std::string> seen;
  Log a(&seen, "a");
  Log b(&seen, "b");
  m.add_observer(&a);
  m.add_observer(&b);
  m.annotate_event(Event::kPlanCacheHit);
  m.remove_observer(&a);
  m.annotate_event(Event::kPlanCacheMiss);
  m.remove_observer(&b);
  m.annotate_event(Event::kPlanCacheEvict);
  EXPECT_EQ(seen, (std::vector<std::string>{"a:plan.cache.hit",
                                            "b:plan.cache.hit",
                                            "b:plan.cache.miss"}));
}

TEST(TimeBreakdown, Accumulates) {
  TimeBreakdown t;
  t[Category::kLocal] = 1.0;
  t[Category::kPrs] = 2.0;
  TimeBreakdown u;
  u[Category::kM2M] = 3.0;
  t += u;
  EXPECT_DOUBLE_EQ(t.total_us(), 6.0);
}

}  // namespace
}  // namespace pup::sim
