#include "graph/edge_list.h"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/check.h"

namespace kcore::graph {
namespace {

// Environmental failures (unreadable files, malformed data) surface as
// util::IoError: one user-facing line naming the source and the
// offending line number, which CLIs print verbatim and exit — not a
// CheckError stack-of-context meant for developers.
[[noreturn]] void throw_parse_error(const std::string& source,
                                    std::size_t line_no,
                                    const std::string& message) {
  throw util::IoError(source + " line " + std::to_string(line_no) + ": " +
                      message);
}

}  // namespace

LoadedGraph read_edge_list(std::istream& in, const std::string& source) {
  std::unordered_map<std::uint64_t, NodeId> dense_of;
  std::vector<std::uint64_t> original_ids;
  GraphBuilder builder;

  auto intern = [&](std::uint64_t file_id) -> NodeId {
    auto [it, inserted] =
        dense_of.try_emplace(file_id, static_cast<NodeId>(original_ids.size()));
    if (inserted) original_ids.push_back(file_id);
    return it->second;
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip leading whitespace to classify the line.
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;               // blank
    if (line[start] == '#' || line[start] == '%') continue;  // comment
    std::istringstream fields(line.substr(start));
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (!(fields >> a >> b)) {
      throw_parse_error(source, line_no,
                        "malformed edge (expected 'u v'): '" + line + "'");
    }
    // Intern in reading order (argument evaluation order is unspecified).
    const NodeId ua = intern(a);
    const NodeId ub = intern(b);
    builder.add_edge(ua, ub);
  }
  // ensure isolated trailing ids (none possible from pair format) — but the
  // builder may have fewer nodes than interned ids if the last interned id
  // had the highest number; ensure_node covers all interned ids.
  builder.ensure_node(static_cast<NodeId>(original_ids.size() == 0
                                              ? 0
                                              : original_ids.size() - 1));
  return {builder.build(), std::move(original_ids)};
}

LoadedGraph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw util::IoError(path + ": cannot open edge list file");
  }
  return read_edge_list(in, path);
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# kcore-dist edge list\n";
  out << "# nodes " << g.num_nodes() << " edges " << g.num_edges() << "\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  if (!out.good()) throw util::IoError(path + ": cannot open for writing");
  write_edge_list(out, g);
  out.flush();
  if (!out.good()) throw util::IoError(path + ": write failed");
}

EdgeStream read_edge_stream(std::istream& in,
                            std::span<const std::uint64_t> original_ids,
                            const std::string& source) {
  std::unordered_map<std::uint64_t, NodeId> dense_of;
  dense_of.reserve(original_ids.size());
  for (std::size_t dense = 0; dense < original_ids.size(); ++dense) {
    dense_of.emplace(original_ids[dense], static_cast<NodeId>(dense));
  }
  EdgeStream stream;
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t last_time = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;                // blank
    if (line[start] == '#' || line[start] == '%') continue;  // comment
    std::istringstream fields(line.substr(start));
    std::uint64_t t = 0;
    std::string op;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (!(fields >> t >> op >> a >> b)) {
      throw_parse_error(source, line_no,
                        "malformed stream event (expected 't op u v'): '" +
                            line + "'");
    }
    if (op != "+" && op != "-") {
      throw_parse_error(source, line_no,
                        "unknown op '" + op + "' (expected '+' or '-')");
    }
    if (!stream.events.empty() && t < last_time) {
      throw_parse_error(source, line_no,
                        "timestamp goes backwards (" + std::to_string(t) +
                            " after " + std::to_string(last_time) + ")");
    }
    const auto to_dense = [&](std::uint64_t id) -> NodeId {
      const auto it = dense_of.find(id);
      if (it == dense_of.end()) {
        throw_parse_error(source, line_no,
                          "node id " + std::to_string(id) +
                              " is not in the base graph's edge list");
      }
      return it->second;
    };
    last_time = t;
    TimedEdgeUpdate event;
    event.time = t;
    event.update.op = op == "+" ? EdgeOp::kInsert : EdgeOp::kRemove;
    event.update.u = to_dense(a);
    event.update.v = to_dense(b);
    stream.events.push_back(event);
  }
  return stream;
}

EdgeStream read_edge_stream_file(const std::string& path,
                                 std::span<const std::uint64_t> original_ids) {
  std::ifstream in(path);
  if (!in.good()) {
    throw util::IoError(path + ": cannot open edge stream file");
  }
  return read_edge_stream(in, original_ids, path);
}

void write_edge_stream(std::ostream& out, const EdgeStream& stream) {
  out << "# kcore-dist edge stream (t op u v)\n";
  out << "# events " << stream.events.size() << "\n";
  for (const TimedEdgeUpdate& event : stream.events) {
    out << event.time << ' '
        << (event.update.op == EdgeOp::kInsert ? '+' : '-') << ' '
        << event.update.u << ' ' << event.update.v << '\n';
  }
}

void write_edge_stream_file(const std::string& path, const EdgeStream& stream) {
  std::ofstream out(path);
  if (!out.good()) throw util::IoError(path + ": cannot open for writing");
  write_edge_stream(out, stream);
  out.flush();
  if (!out.good()) throw util::IoError(path + ": write failed");
}

std::vector<EdgeUpdateBatch> batch_by_window(const EdgeStream& stream,
                                             std::uint64_t window) {
  std::vector<EdgeUpdateBatch> batches;
  const std::size_t count = stream.events.size();
  std::size_t i = 0;
  while (i < count) {
    const std::uint64_t t = stream.events[i].time;
    EdgeUpdateBatch batch;
    if (window == 0) {
      batch.t_begin = t;
      batch.t_end = t + 1;
    } else {
      // Anchor windows at the FIRST event's timestamp so a stream starting
      // at t=1000 doesn't open with hundreds of empty windows.
      const std::uint64_t t0 = stream.events.front().time;
      const std::uint64_t index = (t - t0) / window;
      batch.t_begin = t0 + index * window;
      batch.t_end = batch.t_begin + window;
    }
    while (i < count && stream.events[i].time < batch.t_end) {
      batch.updates.push_back(stream.events[i].update);
      ++i;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace kcore::graph
