// Plain-text edge-list and edge-stream input/output (SNAP-compatible).
//
// Static format: one "u v" pair per line, whitespace-separated; lines
// starting with '#' or '%' are comments. Node ids in files may be
// arbitrary non-negative integers — they are remapped to a dense [0, n)
// range on load (SNAP files routinely have gaps).
//
// Stream format (timestamped churn, consumed by src/live): one "t op u v"
// event per line, with t a non-decreasing integer timestamp, op '+'
// (insert) or '-' (remove), and u/v DENSE node ids into an already-loaded
// base graph. Same comment rules.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace kcore::graph {

/// Result of loading an edge list: the canonical graph plus the mapping
/// from dense ids back to the original file ids.
struct LoadedGraph {
  Graph graph;
  std::vector<std::uint64_t> original_ids;  // original_ids[dense] = file id
};

/// Parse an edge list from a stream. Throws util::IoError on malformed
/// lines (a half-read graph would silently corrupt an experiment), with
/// the offending line number and `source` (a file name, for the file
/// wrappers) in the message.
[[nodiscard]] LoadedGraph read_edge_list(std::istream& in,
                                         const std::string& source = "input");

/// Convenience file wrapper around read_edge_list(std::istream&).
[[nodiscard]] LoadedGraph read_edge_list_file(const std::string& path);

/// Write a graph as "u v" lines, one per undirected edge (u < v), with a
/// comment header carrying node/edge counts.
void write_edge_list(std::ostream& out, const Graph& g);

/// Convenience file wrapper around write_edge_list(std::ostream&).
void write_edge_list_file(const std::string& path, const Graph& g);

// --- timestamped edge streams ----------------------------------------------

enum class EdgeOp : std::uint8_t {
  kInsert,  // '+'
  kRemove,  // '-'
};

/// One churn event: the unit of live::Service::apply batches, the WAL
/// records and the UpdateLog, so every path replays identical streams.
struct EdgeUpdate {
  EdgeOp op = EdgeOp::kInsert;
  NodeId u = 0;
  NodeId v = 0;
  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// An EdgeUpdate with its arrival timestamp (arbitrary integer ticks).
struct TimedEdgeUpdate {
  std::uint64_t time = 0;
  EdgeUpdate update;
  friend bool operator==(const TimedEdgeUpdate&,
                         const TimedEdgeUpdate&) = default;
};

/// A parsed stream: events in file order, timestamps non-decreasing.
struct EdgeStream {
  std::vector<TimedEdgeUpdate> events;
};

/// Consecutive events grouped into one apply unit: all events with
/// timestamp in [t_begin, t_end).
struct EdgeUpdateBatch {
  std::uint64_t t_begin = 0;
  std::uint64_t t_end = 0;
  std::vector<EdgeUpdate> updates;
};

/// Parse a "t op u v" stream. Throws util::IoError (with `source` and
/// the line number) on malformed lines, unknown ops, or a timestamp that
/// goes backwards — a half-read stream would silently corrupt a replay.
[[nodiscard]] EdgeStream read_edge_stream(std::istream& in,
                                          const std::string& source = "input");

/// Convenience file wrapper around read_edge_stream(std::istream&).
[[nodiscard]] EdgeStream read_edge_stream_file(const std::string& path);

/// Write a stream as "t op u v" lines with a comment header; the output
/// round-trips through read_edge_stream.
void write_edge_stream(std::ostream& out, const EdgeStream& stream);

/// Convenience file wrapper around write_edge_stream(std::ostream&).
void write_edge_stream_file(const std::string& path, const EdgeStream& stream);

/// Group a stream into batches of `window` ticks anchored at the first
/// event's timestamp; window 0 means one batch per distinct timestamp.
/// Empty windows produce no batch.
[[nodiscard]] std::vector<EdgeUpdateBatch> batch_by_window(
    const EdgeStream& stream, std::uint64_t window);

}  // namespace kcore::graph
