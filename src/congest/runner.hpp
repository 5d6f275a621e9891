#pragma once
// Composite execution of edge-disjoint sub-algorithms.
//
// Theorem 1 runs λ' independent pipelined broadcasts, one per edge-disjoint
// spanning subgraph. Because the subgraphs share no edges, executing all
// instances simultaneously is a single valid CONGEST execution on the
// parent graph: in any global round every edge carries at most the one
// message of the unique instance that owns it. The runner therefore runs
// each instance on its own Network over its subgraph, one after another,
// and combines the costs as the concurrent execution would pay them:
// rounds = max over instances, messages = sum, and per-parent-edge
// congestion is folded back through the subgraphs' parent_edge maps.
// Edge-disjointness is verified, not assumed. Every per-instance RunResult
// is that instance's own engine run, so its rounds, messages, arc_sends,
// undelivered, fault counters and telemetry span are exact.
//
// Faults: a composite run injects faults per instance, never globally —
// EdgeDisjointInstance::faults carries a plan whose ids are LOCAL to that
// instance's subgraph (node/arc/edge ids of `part->graph`). Setting
// RunOptions::faults on the composite throws: a plan keyed by parent-graph
// ids would not say which instance it belongs to.

#include <cstdint>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace fc::congest {

struct CompositeResult {
  std::uint64_t rounds = 0;    // max over instances
  std::uint64_t messages = 0;  // sum over instances
  bool finished = false;       // all instances finished
  std::vector<RunResult> per_instance;
  /// Fault totals summed over instances.
  std::uint64_t fault_dropped = 0;
  std::uint64_t fault_corrupted = 0;
  /// Congestion per PARENT edge (messages in both directions).
  std::vector<std::uint64_t> parent_edge_congestion;

  std::uint64_t max_parent_edge_congestion() const;
};

/// One unit of concurrent work: an algorithm bound to a subgraph of the
/// parent. The Subgraph must outlive the call.
struct EdgeDisjointInstance {
  const Subgraph* part = nullptr;
  Algorithm* algorithm = nullptr;
  /// Optional fault plan for THIS instance; ids are local to part->graph.
  const FaultPlan* faults = nullptr;
};

/// Run all instances as one concurrent execution. Throws std::logic_error
/// if two instances claim the same parent edge, or if opts.faults is set
/// (faults are per instance: EdgeDisjointInstance::faults).
CompositeResult run_edge_disjoint(const Graph& parent,
                                  std::span<const EdgeDisjointInstance> work,
                                  const RunOptions& opts = {});

}  // namespace fc::congest
