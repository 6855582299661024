#include "live/korder.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/check.h"

namespace kcore::live {

using graph::kInvalidNode;
using graph::NodeId;

namespace {
constexpr std::uint64_t kLabelEnd = std::numeric_limits<std::uint64_t>::max();
}  // namespace

void KOrder::build(NodeId skip_u, NodeId skip_v) {
  const NodeId n = graph_.num_nodes();
  const bool skipping = skip_u != kInvalidNode;
  if (skipping) {
    KCORE_CHECK_MSG(graph_.has_edge(skip_u, skip_v),
                    "KOrder::build: skipped edge {" << skip_u << ","
                                                    << skip_v
                                                    << "} is not in the graph");
  }
  auto skipped = [&](NodeId a, NodeId b) {
    return skipping &&
           ((a == skip_u && b == skip_v) || (a == skip_v && b == skip_u));
  };

  // Batagelj–Zaveršnik bucket peel (as in seq::coreness_bz) over the live
  // adjacency. Its removal order is a k-order, so the lists, labels and
  // deg+ are filled in as nodes are removed: removal order is sorted by
  // core, each node joins the tail of its shell, and its label is its
  // removal position spread over the label space.
  core_.assign(n, 0);
  std::vector<NodeId>& degree = core_;  // degree at removal == coreness
  NodeId max_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    degree[u] = graph_.degree(u) -
                (skipping && (u == skip_u || u == skip_v) ? 1 : 0);
    max_degree = std::max(max_degree, degree[u]);
  }
  std::vector<NodeId> bucket_start(static_cast<std::size_t>(max_degree) + 2,
                                   0);
  for (NodeId u = 0; u < n; ++u) ++bucket_start[degree[u] + 1];
  for (std::size_t d = 1; d < bucket_start.size(); ++d) {
    bucket_start[d] += bucket_start[d - 1];
  }
  std::vector<NodeId> order(n);
  std::vector<NodeId> pos(n);
  {
    std::vector<NodeId> cursor(bucket_start.begin(), bucket_start.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      pos[u] = cursor[degree[u]]++;
      order[pos[u]] = u;
    }
  }
  head_.assign(static_cast<std::size_t>(max_degree) + 1, kInvalidNode);
  tail_.assign(head_.size(), kInvalidNode);
  shell_size_.assign(head_.size(), 0);
  prev_.resize(n);
  next_.resize(n);
  label_.resize(n);
  deg_plus_.resize(n);
  const std::uint64_t gap = kLabelEnd / (static_cast<std::uint64_t>(n) + 1);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId u = order[i];
    const NodeId k = degree[u];
    prev_[u] = tail_[k];
    next_[u] = kInvalidNode;
    if (tail_[k] == kInvalidNode) {
      head_[k] = u;
    } else {
      next_[tail_[k]] = u;
    }
    tail_[k] = u;
    ++shell_size_[k];
    label_[u] = gap * (static_cast<std::uint64_t>(i) + 1);
    // Positions after i hold exactly the unpeeled nodes, so u's later
    // neighbours in the final order are those with pos > i right now.
    NodeId later = 0;
    for (const NodeId v : graph_.neighbors(u)) {
      if (pos[v] < i || skipped(u, v)) continue;
      ++later;
      if (degree[v] <= k) continue;
      const NodeId v_pos = pos[v];
      const NodeId head_pos = bucket_start[degree[v]];
      const NodeId head = order[head_pos];
      if (head != v) {
        order[v_pos] = head;
        order[head_pos] = v;
        pos[head] = v_pos;
        pos[v] = head_pos;
      }
      ++bucket_start[degree[v]];
      --degree[v];
    }
    deg_plus_[u] = later;
  }
  // insert() scratch is all-clear between calls; size it once.
  if (state_.size() != n) {
    deg_star_.assign(n, 0);
    state_.assign(n, kIdle);
  }
  valid_ = true;
}

void KOrder::relabel(NodeId k) {
  const std::uint64_t gap =
      kLabelEnd / (static_cast<std::uint64_t>(shell_size_[k]) + 1);
  std::uint64_t label = gap;
  for (NodeId w = head_[k]; w != kInvalidNode; w = next_[w]) {
    label_[w] = label;
    label += gap;
  }
}

void KOrder::ensure_shell(NodeId k) {
  if (head_.size() > k) return;
  head_.resize(static_cast<std::size_t>(k) + 1, kInvalidNode);
  tail_.resize(head_.size(), kInvalidNode);
  shell_size_.resize(head_.size(), 0);
}

void KOrder::unlink(NodeId w) {
  const NodeId k = core_[w];
  const NodeId p = prev_[w];
  const NodeId nx = next_[w];
  if (p == kInvalidNode) {
    head_[k] = nx;
  } else {
    next_[p] = nx;
  }
  if (nx == kInvalidNode) {
    tail_[k] = p;
  } else {
    prev_[nx] = p;
  }
  --shell_size_[k];
}

void KOrder::link_run(NodeId k, NodeId after, std::span<const NodeId> run) {
  ensure_shell(k);
  const NodeId before = after == kInvalidNode ? head_[k] : next_[after];
  NodeId p = after;
  for (const NodeId w : run) {
    prev_[w] = p;
    if (p == kInvalidNode) {
      head_[k] = w;
    } else {
      next_[p] = w;
    }
    p = w;
  }
  next_[p] = before;
  if (before == kInvalidNode) {
    tail_[k] = p;
  } else {
    prev_[before] = p;
  }
  shell_size_[k] += static_cast<NodeId>(run.size());

  const std::uint64_t lo = after == kInvalidNode ? 0 : label_[after];
  const std::uint64_t hi = before == kInvalidNode ? kLabelEnd : label_[before];
  const std::uint64_t m = run.size();
  if (hi - lo <= m) {
    relabel(k);
    return;
  }
  const std::uint64_t step = (hi - lo) / (m + 1);
  for (std::uint64_t i = 0; i < m; ++i) label_[run[i]] = lo + step * (i + 1);
}

void KOrder::weaken(NodeId c, NodeId& count, NodeId K) {
  --count;
  if (deg_plus_[c] + deg_star_[c] == K) evict_stack_.push_back(c);
}

void KOrder::evict_pending(NodeId K) {
  while (!evict_stack_.empty()) {
    const NodeId c = evict_stack_.back();
    evict_stack_.pop_back();
    // Peeled now: its remaining degree (unpeeled neighbours) becomes its
    // count of later neighbours at its new place right after the anchor.
    state_[c] = kPeeled;
    deg_plus_[c] += deg_star_[c];
    deg_star_[c] = 0;
    evicted_.push_back(c);
    for (const NodeId x : graph_.neighbors(c)) {
      if (state_[x] == kCandidate) {
        // c was counted by x as an earlier candidate (deg*) or as a later
        // neighbour (deg+).
        weaken(x, label_[c] < label_[x] ? deg_star_[x] : deg_plus_[x], K);
      } else if (state_[x] == kQueued) {
        --deg_star_[x];  // x is later and counted c as a candidate
      }
    }
  }
}

std::span<const NodeId> KOrder::insert(NodeId u, NodeId v) {
  KCORE_DCHECK(valid_);
  risen_.clear();
  const NodeId root = precedes(u, v) ? u : v;
  const NodeId K = core_[root];
  if (++deg_plus_[root] <= K) return {};

  // Visit O_K from the root in order, but only nodes with deg* > 0 (the
  // rest keep their place and their counts): a min-heap keyed by label.
  auto later = [this](NodeId a, NodeId b) { return label_[a] > label_[b]; };
  state_[root] = kQueued;
  touched_.push_back(root);
  heap_.push_back(root);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const NodeId w = heap_.back();
    heap_.pop_back();
    if (deg_plus_[w] + deg_star_[w] > K) {
      state_[w] = kCandidate;
      candidates_.push_back(w);
      for (const NodeId x : graph_.neighbors(w)) {
        if (core_[x] != K || label_[x] < label_[w]) continue;
        if (state_[x] == kIdle) {
          state_[x] = kQueued;
          touched_.push_back(x);
          heap_.push_back(x);
          std::push_heap(heap_.begin(), heap_.end(), later);
        }
        ++deg_star_[x];
      }
      continue;
    }
    state_[w] = kPeeled;
    if (deg_star_[w] == 0) continue;
    // w stays at level K; its earlier candidate neighbours now come after
    // it, and each of them loses w as a later neighbour.
    deg_plus_[w] += deg_star_[w];
    deg_star_[w] = 0;
    for (const NodeId x : graph_.neighbors(w)) {
      if (state_[x] == kCandidate) weaken(x, deg_plus_[x], K);
    }
    if (!evict_stack_.empty()) {
      evict_pending(K);
      runs_.emplace_back(w, evicted_.size());
    }
  }

  // Deferred list surgery: evicted runs go right after their anchors, the
  // surviving candidates rise to K+1 and lead O_{K+1} in order.
  for (const NodeId c : candidates_) {
    if (state_[c] == kCandidate) risen_.push_back(c);
  }
  for (const NodeId c : evicted_) unlink(c);
  for (const NodeId c : risen_) unlink(c);
  std::size_t begin = 0;
  for (const auto& [anchor, end] : runs_) {
    link_run(K, anchor,
             std::span<const NodeId>(evicted_).subspan(begin, end - begin));
    begin = end;
  }
  for (const NodeId c : risen_) core_[c] = K + 1;
  if (!risen_.empty()) link_run(K + 1, kInvalidNode, risen_);

  for (const NodeId w : touched_) {
    state_[w] = kIdle;
    deg_star_[w] = 0;
  }
  touched_.clear();
  candidates_.clear();
  evicted_.clear();
  runs_.clear();
  return risen_;
}

void KOrder::remove(NodeId u, NodeId v) {
  const NodeId first = precedes(u, v) ? u : v;
  KCORE_DCHECK(deg_plus_[first] > 0);
  --deg_plus_[first];
}

std::string KOrder::validate() const {
  std::ostringstream err;
  if (!valid_) return "order not built";
  const NodeId n = graph_.num_nodes();
  if (core_.size() != n) return "order size != node count";
  std::vector<std::uint8_t> seen(n, 0);
  std::size_t total = 0;
  for (NodeId k = 0; k < head_.size(); ++k) {
    NodeId p = kInvalidNode;
    NodeId size = 0;
    for (NodeId w = head_[k]; w != kInvalidNode; w = next_[w]) {
      if (w >= n || seen[w]) {
        err << "shell " << k << " lists node " << w << " twice or out of range";
        return err.str();
      }
      seen[w] = 1;
      if (core_[w] != k) {
        err << "node " << w << " of core " << core_[w] << " in shell " << k;
        return err.str();
      }
      if (prev_[w] != p) {
        err << "node " << w << " has a broken prev link";
        return err.str();
      }
      if (p != kInvalidNode && label_[w] <= label_[p]) {
        err << "labels do not increase at node " << w << " in shell " << k;
        return err.str();
      }
      p = w;
      ++size;
    }
    if (tail_[k] != p || shell_size_[k] != size) {
      err << "shell " << k << " tail or size is stale";
      return err.str();
    }
    total += size;
  }
  if (total != n) {
    err << "lists hold " << total << " of " << n << " nodes";
    return err.str();
  }
  for (NodeId w = 0; w < n; ++w) {
    NodeId later = 0;
    for (const NodeId x : graph_.neighbors(w)) {
      if (precedes(w, x)) ++later;
    }
    if (later != deg_plus_[w] || later > core_[w]) {
      err << "node " << w << ": deg+ " << deg_plus_[w] << ", later neighbours "
          << later << ", core " << core_[w];
      return err.str();
    }
    if (state_[w] != kIdle || deg_star_[w] != 0) {
      err << "node " << w << " has stale insert scratch";
      return err.str();
    }
  }
  return {};
}

}  // namespace kcore::live
