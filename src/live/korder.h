// A maintained k-order over a LiveGraph: the insertion half of Zhang et
// al., "A Fast Order-Based Approach for Core Maintenance" (ICDE 2017).
//
// A k-order is a sequence of all nodes, O = O_0 O_1 O_2 ..., where O_k
// holds the nodes of coreness k and the whole sequence is a valid
// bucket-peel order. For a node w let deg+(w) be its number of
// neighbours later in O. Then O is a k-order exactly when shells ascend
// and deg+(w) <= core(w) for every w. A peel of the graph produces one.
//
// Why it pays: after inserting {u,v} with u earlier in O and K =
// core(u), only deg+(u) changes (+1). If it is still <= K the order is
// still a k-order and no coreness changes — O(1). Otherwise OrderInsert
// walks O_K forward from u, visiting only nodes that gained an earlier
// candidate neighbour (deg* > 0), in order, via a label-keyed min-heap:
//  * deg+(w) + deg*(w) > K: w cannot be peeled at level K any more; it
//    becomes a candidate and bumps deg* of its later O_K neighbours;
//  * otherwise w is peeled where it stands (deg+ absorbs deg*); each
//    candidate neighbour loses one later neighbour, and candidates that
//    drop to <= K are evicted (peeled right after w), cascading.
// The candidates left at the end rise to K+1 and move, in order, to the
// head of O_{K+1}; deg+ stays exact for every node.
//
// Representation: per-shell doubly-linked lists, 64-bit order labels
// (strictly increasing within a shell; a shell is relabelled evenly when
// a gap closes) and a deg+ count per node. List surgery is deferred to
// the end of each insert, so every comparison during the walk uses the
// labels the walk started with.
//
// The order does not follow a core DROP: its owner invalidates it and
// rebuilds it lazily with build(). Moving the dropped nodes to the tail
// of their new shell, as Zhang et al.'s OrderRemoval does, also keeps a
// valid k-order, but it leaves them, and the nodes that later rise back
// to the head of the shell above, with deg+ == core. On amazon-like
// under a 50/50 stream of single-edge updates that made each insert
// that did not stop at its root walk ~15k nodes, against ~40 when the
// order was rebuilt after each drop.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "live/live_graph.h"

namespace kcore::live {

class KOrder {
 public:
  /// The graph reference must outlive the order. Allocates nothing until
  /// the first build().
  explicit KOrder(const LiveGraph& graph) : graph_(graph) {}

  /// Rebuild from one bucket peel of the graph. When {skip_u, skip_v} is
  /// given, that edge is treated as absent — the order then describes the
  /// graph just before the edge was inserted, ready for insert(). O(N+M).
  void build(graph::NodeId skip_u = graph::kInvalidNode,
             graph::NodeId skip_v = graph::kInvalidNode);

  /// Drop the order (keeps its memory for the next build()).
  void clear() noexcept { valid_ = false; }
  [[nodiscard]] bool valid() const noexcept { return valid_; }

  [[nodiscard]] graph::NodeId core(graph::NodeId u) const { return core_[u]; }

  /// OrderInsert for {u,v}, which the graph already contains. Returns the
  /// nodes whose coreness rose (by exactly one), valid until the next
  /// call; the order stays a k-order of the graph.
  std::span<const graph::NodeId> insert(graph::NodeId u, graph::NodeId v);

  /// {u,v} was removed from the graph: deg+ of the earlier endpoint drops
  /// by one. The order stays valid iff no coreness drops; the owner must
  /// clear() it otherwise.
  void remove(graph::NodeId u, graph::NodeId v);

  /// Full invariant check against the current graph, O(N+M): every node
  /// sits once in the list of its shell, labels strictly increase within
  /// a shell, and deg+ equals the count of later neighbours and is <=
  /// core. Returns an empty string when all hold, else the first
  /// violation.
  [[nodiscard]] std::string validate() const;

 private:
  enum State : std::uint8_t { kIdle, kQueued, kCandidate, kPeeled };

  /// Whether a comes before b in the order.
  [[nodiscard]] bool precedes(graph::NodeId a, graph::NodeId b) const {
    return core_[a] != core_[b] ? core_[a] < core_[b] : label_[a] < label_[b];
  }

  void unlink(graph::NodeId w);
  /// Link `run` (in order) into shell k between `after` and its successor
  /// (`after` == kInvalidNode: at the head), labelling it within the gap
  /// or relabelling the shell when the gap is too small.
  void link_run(graph::NodeId k, graph::NodeId after,
                std::span<const graph::NodeId> run);
  void relabel(graph::NodeId k);
  void ensure_shell(graph::NodeId k);
  /// Queue-based eviction cascade over the candidates in evict_stack_.
  void evict_pending(graph::NodeId K);
  /// One fewer unpeeled neighbour for candidate c; queues its eviction
  /// when that takes it to K.
  void weaken(graph::NodeId c, graph::NodeId& count, graph::NodeId K);

  const LiveGraph& graph_;
  bool valid_ = false;
  std::vector<graph::NodeId> core_;
  std::vector<graph::NodeId> deg_plus_;
  std::vector<std::uint64_t> label_;
  std::vector<graph::NodeId> prev_;
  std::vector<graph::NodeId> next_;
  std::vector<graph::NodeId> head_;  // per shell; kInvalidNode when empty
  std::vector<graph::NodeId> tail_;
  std::vector<graph::NodeId> shell_size_;

  // insert() scratch; deg_star_ and state_ are all-zero between calls.
  std::vector<graph::NodeId> deg_star_;
  std::vector<std::uint8_t> state_;
  std::vector<graph::NodeId> heap_;
  std::vector<graph::NodeId> touched_;
  std::vector<graph::NodeId> candidates_;
  std::vector<graph::NodeId> evicted_;
  std::vector<graph::NodeId> evict_stack_;
  // (anchor, end offset into evicted_) per peel that evicted something
  std::vector<std::pair<graph::NodeId, std::size_t>> runs_;
  std::vector<graph::NodeId> risen_;
};

}  // namespace kcore::live
