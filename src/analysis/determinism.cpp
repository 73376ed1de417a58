#include "analysis/determinism.hpp"

#include <sstream>

#include "support/check.hpp"

namespace pup::analysis {

TraceDigest digest(const sim::Machine& machine) {
  TraceDigest d;
  const sim::Trace& t = machine.trace();
  const int P = machine.nprocs();
  d.messages = t.messages();
  d.bytes = t.bytes();
  d.self_bytes = t.self_bytes();
  for (int c = 0; c < sim::kNumCategories; ++c) {
    const auto cat = static_cast<sim::Category>(c);
    d.messages_by_cat[static_cast<std::size_t>(c)] = t.messages_in(cat);
    d.bytes_by_cat[static_cast<std::size_t>(c)] = t.bytes_in(cat);
  }
  d.sent_bytes.resize(static_cast<std::size_t>(P));
  d.recv_bytes.resize(static_cast<std::size_t>(P));
  d.charged_us.resize(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const auto rank = static_cast<std::size_t>(r);
    d.sent_bytes[rank] = t.sent_bytes(r);
    d.recv_bytes[rank] = t.recv_bytes(r);
    for (int c = 0; c < sim::kNumCategories; ++c) {
      d.charged_us[rank][static_cast<std::size_t>(c)] =
          machine.modeled_us(r, static_cast<sim::Category>(c));
    }
  }
  return d;
}

std::string diff_digests(const TraceDigest& a, const TraceDigest& b) {
  std::ostringstream os;
  auto scalar = [&](const char* name, auto va, auto vb) {
    os << name << ": " << va << " vs " << vb;
  };
  if (a.messages != b.messages) {
    scalar("message count", a.messages, b.messages);
  } else if (a.bytes != b.bytes) {
    scalar("byte total", a.bytes, b.bytes);
  } else if (a.self_bytes != b.self_bytes) {
    scalar("self-traffic bytes", a.self_bytes, b.self_bytes);
  } else if (a.messages_by_cat != b.messages_by_cat) {
    os << "per-category message counts differ";
  } else if (a.bytes_by_cat != b.bytes_by_cat) {
    os << "per-category byte totals differ";
  } else if (a.sent_bytes != b.sent_bytes) {
    os << "per-rank sent-byte totals differ";
  } else if (a.recv_bytes != b.recv_bytes) {
    os << "per-rank received-byte totals differ";
  } else if (a.charged_us != b.charged_us) {
    os << "modeled time buckets differ";
  }
  return os.str();
}

DeterminismReport check_determinism(
    const std::function<std::unique_ptr<sim::Machine>()>& make_machine,
    const std::function<void(sim::Machine&)>& op) {
  auto run = [&]() {
    std::unique_ptr<sim::Machine> machine = make_machine();
    PUP_REQUIRE(machine != nullptr,
                "determinism check needs a machine factory that returns a "
                "machine");
    op(*machine);
    return digest(*machine);
  };
  DeterminismReport rep;
  rep.first = run();
  rep.second = run();
  rep.diff = diff_digests(rep.first, rep.second);
  rep.deterministic = rep.diff.empty();
  return rep;
}

DeterminismReport check_determinism(
    int nprocs, sim::CostModel cost,
    const std::function<void(sim::Machine&)>& op) {
  return check_determinism(
      [nprocs, cost] { return std::make_unique<sim::Machine>(nprocs, cost); },
      op);
}

}  // namespace pup::analysis
