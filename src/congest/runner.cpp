#include "congest/runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace fc::congest {

std::uint64_t CompositeResult::max_parent_edge_congestion() const {
  std::uint64_t best = 0;
  for (std::uint64_t c : parent_edge_congestion) best = std::max(best, c);
  return best;
}

namespace {

void verify_edge_disjoint(const Graph& parent,
                          std::span<const EdgeDisjointInstance> work) {
  // Each parent edge may belong to at most one instance, otherwise
  // concurrent execution would violate bandwidth.
  std::vector<std::uint8_t> claimed(parent.edge_count(), 0);
  for (const auto& inst : work) {
    if (!inst.part || !inst.algorithm)
      throw std::logic_error("run_edge_disjoint: null instance");
    for (EdgeId e : inst.part->parent_edge) {
      if (claimed[e])
        throw std::logic_error(
            "run_edge_disjoint: parent edge claimed by two instances");
      claimed[e] = 1;
    }
  }
}

}  // namespace

CompositeResult run_edge_disjoint(const Graph& parent,
                                  std::span<const EdgeDisjointInstance> work,
                                  const RunOptions& opts) {
  if (opts.faults != nullptr && !opts.faults->empty())
    throw std::logic_error(
        "run_edge_disjoint: set per-instance EdgeDisjointInstance::faults, "
        "not RunOptions::faults (fault ids are local to each instance)");
  verify_edge_disjoint(parent, work);
  CompositeResult out;
  out.finished = true;
  out.parent_edge_congestion.assign(parent.edge_count(), 0);
  out.per_instance.reserve(work.size());
  for (const auto& inst : work) {
    Network net(inst.part->graph);
    RunOptions local = opts;
    local.faults = inst.faults;
    RunResult res = net.run(*inst.algorithm, local);
    out.rounds = std::max(out.rounds, res.rounds);
    out.messages += res.messages;
    out.fault_dropped += res.fault_dropped;
    out.fault_corrupted += res.fault_corrupted;
    out.finished = out.finished && res.finished;
    const Graph& sub = inst.part->graph;
    for (EdgeId e = 0; e < sub.edge_count(); ++e)
      out.parent_edge_congestion[inst.part->parent_edge[e]] +=
          res.edge_congestion(sub, e);
    out.per_instance.push_back(std::move(res));
  }
  return out;
}

}  // namespace fc::congest
