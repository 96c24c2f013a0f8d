#include "src/graph/stream_graph.h"

#include "src/support/contracts.h"

namespace sdaf {

NodeId StreamGraph::add_node(std::string name) {
  const auto id = static_cast<NodeId>(node_names_.size());
  if (name.empty()) name.append("n").append(std::to_string(id));
  node_names_.push_back(std::move(name));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

EdgeId StreamGraph::add_edge(NodeId from, NodeId to, std::int64_t buffer) {
  SDAF_EXPECTS(from < node_count());
  SDAF_EXPECTS(to < node_count());
  SDAF_EXPECTS(from != to);  // self-loops are directed cycles; not a DAG
  SDAF_EXPECTS(buffer >= 1);
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{from, to, buffer});
  out_[from].push_back(id);
  in_[to].push_back(id);
  return id;
}

const Edge& StreamGraph::edge(EdgeId e) const {
  SDAF_EXPECTS(e < edge_count());
  return edges_[e];
}

const std::string& StreamGraph::node_name(NodeId n) const {
  SDAF_EXPECTS(n < node_count());
  return node_names_[n];
}

void StreamGraph::set_node_name(NodeId n, std::string name) {
  SDAF_EXPECTS(n < node_count());
  node_names_[n] = std::move(name);
}

void StreamGraph::set_buffer(EdgeId e, std::int64_t buffer) {
  SDAF_EXPECTS(e < edge_count());
  SDAF_EXPECTS(buffer >= 1);
  edges_[e].buffer = buffer;
}

std::span<const EdgeId> StreamGraph::out_edges(NodeId n) const {
  SDAF_EXPECTS(n < node_count());
  return out_[n];
}

std::span<const EdgeId> StreamGraph::in_edges(NodeId n) const {
  SDAF_EXPECTS(n < node_count());
  return in_[n];
}

std::size_t StreamGraph::out_degree(NodeId n) const {
  return out_edges(n).size();
}

std::size_t StreamGraph::in_degree(NodeId n) const { return in_edges(n).size(); }

std::vector<NodeId> StreamGraph::sources() const {
  std::vector<NodeId> result;
  for (NodeId n = 0; n < node_count(); ++n)
    if (in_[n].empty()) result.push_back(n);
  return result;
}

std::vector<NodeId> StreamGraph::sinks() const {
  std::vector<NodeId> result;
  for (NodeId n = 0; n < node_count(); ++n)
    if (out_[n].empty()) result.push_back(n);
  return result;
}

NodeId StreamGraph::unique_source() const {
  const auto s = sources();
  SDAF_EXPECTS(s.size() == 1);
  return s[0];
}

NodeId StreamGraph::unique_sink() const {
  const auto s = sinks();
  SDAF_EXPECTS(s.size() == 1);
  return s[0];
}

}  // namespace sdaf
