#include "checks.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace perfbench {

using makalu::NodeId;
using makalu::QueryResult;

Bfs::Bfs(const makalu::CsrGraph& graph)
    : graph_(&graph),
      stamp_(graph.node_count(), 0),
      holder_stamp_(graph.node_count(), 0),
      dist_(graph.node_count(), 0) {}

void Bfs::begin() {
  if (++epoch_ == 0) {  // wrapped: reset the stamps once
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(holder_stamp_.begin(), holder_stamp_.end(), 0);
    epoch_ = 1;
  }
  order_.clear();
}

void Bfs::mark_holders(const std::vector<NodeId>& holders) {
  for (const NodeId h : holders) holder_stamp_.at(h) = epoch_;
}

const std::vector<NodeId>& Bfs::ball(NodeId root, std::uint32_t radius) {
  begin();
  stamp_.at(root) = epoch_;
  dist_[root] = 0;
  order_.push_back(root);
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const NodeId u = order_[head];
    if (dist_[u] == radius) continue;
    for (const NodeId v : graph_->neighbors(u)) {
      if (stamp_[v] == epoch_) continue;
      stamp_[v] = epoch_;
      dist_[v] = dist_[u] + 1;
      order_.push_back(v);
    }
  }
  return order_;
}

QueryResult Bfs::expected_flood(NodeId source,
                                const std::vector<NodeId>& holders,
                                std::uint32_t ttl) {
  const std::vector<NodeId>& nodes = ball(source, ttl);
  mark_holders(holders);
  QueryResult want;
  want.first_hit_hop = std::numeric_limits<std::uint32_t>::max();
  for (const NodeId v : nodes) {
    ++want.nodes_visited;
    const std::uint32_t d = dist_[v];
    if (is_holder(v)) {
      want.success = true;
      want.first_hit_hop = std::min(want.first_hit_hop, d);
      ++want.replicas_found;
    }
    if (d < ttl) {
      const std::uint64_t degree = graph_->neighbors(v).size();
      const std::uint64_t sent = v == source ? degree : degree - 1;
      want.messages += sent;
      if (sent > 0) ++want.forwarders;
    }
  }
  if (!want.success) want.first_hit_hop = 0;
  want.duplicates = want.messages - (want.nodes_visited - 1);
  return want;
}

std::uint32_t Bfs::nearest_holder(NodeId source,
                                  const std::vector<NodeId>& holders) {
  begin();
  mark_holders(holders);
  stamp_.at(source) = epoch_;
  dist_[source] = 0;
  order_.push_back(source);
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const NodeId u = order_[head];
    if (is_holder(u)) return dist_[u];
    for (const NodeId v : graph_->neighbors(u)) {
      if (stamp_[v] == epoch_) continue;
      stamp_[v] = epoch_;
      dist_[v] = dist_[u] + 1;
      order_.push_back(v);
    }
  }
  return kUnreached;
}

bool same_result(const QueryResult& a, const QueryResult& b,
                 std::string* what) {
  const auto differs = [what](const char* field) {
    if (what != nullptr) *what = field;
    return false;
  };
  if (a.success != b.success) return differs("success");
  if (a.messages != b.messages) return differs("messages");
  if (a.duplicates != b.duplicates) return differs("duplicates");
  if (a.nodes_visited != b.nodes_visited) return differs("nodes_visited");
  if (a.first_hit_hop != b.first_hit_hop) return differs("first_hit_hop");
  if (a.replicas_found != b.replicas_found) return differs("replicas_found");
  if (a.forwarders != b.forwarders) return differs("forwarders");
  if (a.truncated != b.truncated) return differs("truncated");
  return true;
}

std::size_t missing_arc_keys(const makalu::AbfRouter& router,
                             const makalu::ObjectCatalog& catalog,
                             makalu::ObjectId object, Bfs& bfs,
                             std::uint64_t* arcs_checked) {
  const makalu::BlockedAbfTable* table = router.blocked_table();
  if (table == nullptr) throw std::logic_error("blocked table expected");
  const makalu::CsrGraph& graph = router.graph();
  const std::uint64_t key = makalu::ObjectCatalog::object_key(object);
  const auto depth = static_cast<std::uint32_t>(table->depth());
  std::size_t missing = 0;
  for (const NodeId holder : catalog.holders(object)) {
    const std::vector<NodeId>& nodes = bfs.ball(holder, depth - 1);
    for (const NodeId v : nodes) {
      const std::uint32_t d = bfs.distance(v);
      // Neighbors of v one hop closer to the holder: the arc u->v must
      // carry the key unless u is the only such neighbor.
      std::size_t closer = 0;
      NodeId only_closer = makalu::kInvalidNode;
      if (d > 0) {
        for (const NodeId w : graph.neighbors(v)) {
          if (bfs.distance(w) == d - 1) {
            ++closer;
            only_closer = w;
          }
        }
      }
      for (const NodeId u : graph.neighbors(v)) {
        if (d > 0 && closer == 1 && only_closer == u) continue;
        const auto row = graph.neighbors(u);
        const auto local = static_cast<std::size_t>(
            std::find(row.begin(), row.end(), v) - row.begin());
        if (arcs_checked != nullptr) ++*arcs_checked;
        if (!table->arc_maybe_contains(u, v, local, d, key)) ++missing;
      }
    }
  }
  return missing;
}

bool base_superset(const makalu::BlockedAbfTable& live,
                   const makalu::BlockedAbfTable& fresh) {
  if (live.node_count() != fresh.node_count() ||
      live.depth() != fresh.depth() ||
      live.words_per_level() != fresh.words_per_level()) {
    return false;
  }
  for (std::uint32_t v = 0; v < live.node_count(); ++v) {
    for (std::size_t l = 0; l < live.depth(); ++l) {
      const std::uint64_t* have = live.level_words(v, l);
      const std::uint64_t* want = fresh.level_words(v, l);
      for (std::size_t w = 0; w < live.words_per_level(); ++w) {
        if ((want[w] & ~have[w]) != 0) return false;
      }
    }
  }
  return true;
}

SaturationCensus saturation_census(const makalu::CountingAbfTable& counting) {
  SaturationCensus census;
  for (std::uint32_t v = 0; v < counting.node_count(); ++v) {
    for (std::size_t l = 0; l < counting.depth(); ++l) {
      const makalu::CountingBloomFilter& f = counting.level(v, l);
      census.saturated += f.saturated_count();
      census.slots += f.slot_count();
    }
  }
  return census;
}

void clear_key_bit(const makalu::AbfRouter& router, NodeId node,
                   std::uint64_t key) {
  // The router owns a mutable table; only the accessor is const.
  auto* table = const_cast<makalu::BlockedAbfTable*>(router.blocked_table());
  if (table == nullptr) throw std::logic_error("blocked table expected");
  const makalu::BlockedProbeSet probes = table->make_probe_set(key);
  if (probes.pos_count == 0) throw std::logic_error("empty probe set");
  table->clear_position(node, 0, probes.pos[0]);
}

}  // namespace perfbench
