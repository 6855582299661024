// The live service's replayable input: an append-only log of edge
// updates grouped into batches, each batch the unit of one apply/repair/
// publish cycle. Built either programmatically (append + seal) or from a
// timestamped edge stream (graph::read_edge_stream + batch_by_window),
// and consumed by live::Service::replay (tests replay the same log through
// a plain LiveGraph plus bz as the oracle).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"

namespace kcore::live {

class UpdateLog {
 public:
  /// Append one update to the open (unsealed) batch.
  void append(const graph::EdgeUpdate& update) { open_.push_back(update); }

  /// Close the open batch; a no-op when it is empty.
  void seal();

  /// Append a whole batch (seals any open updates first so ordering is
  /// preserved).
  void append_batch(std::vector<graph::EdgeUpdate> batch);

  /// Build a log from a timestamped stream, one batch per `window` ticks
  /// (window 0: one batch per distinct timestamp — see
  /// graph::batch_by_window).
  [[nodiscard]] static UpdateLog from_stream(const graph::EdgeStream& stream,
                                             std::uint64_t window);

  [[nodiscard]] std::size_t num_batches() const noexcept {
    return batches_.size();
  }
  [[nodiscard]] std::span<const graph::EdgeUpdate> batch(std::size_t i) const {
    return batches_[i];
  }
  /// Total updates across sealed batches.
  [[nodiscard]] std::uint64_t num_updates() const noexcept;

 private:
  std::vector<std::vector<graph::EdgeUpdate>> batches_;
  std::vector<graph::EdgeUpdate> open_;
};

}  // namespace kcore::live
