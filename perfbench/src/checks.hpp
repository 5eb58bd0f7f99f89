// Independent checkers: every expectation here is computed from the
// graph and the catalog's holder lists by the benchmark's own breadth-
// first searches, never by the search code under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "search/abf_search.hpp"
#include "sim/query_stats.hpp"
#include "sim/replica_placement.hpp"

namespace perfbench {

/// Breadth-first search over a CSR graph with epoch-stamped scratch, so
/// thousands of checks allocate nothing after the first.
class Bfs {
 public:
  explicit Bfs(const makalu::CsrGraph& graph);

  /// What a TTL flood with duplicate suppression must report: the ball of
  /// radius ttl around `source` is visited; every node at distance
  /// d <= ttl - 1 forwards to all neighbors but its sender (the source to
  /// all), so messages = deg(source) + sum over 1 <= d <= ttl-1 of
  /// (deg - 1); duplicates are the messages that did not discover a node.
  [[nodiscard]] makalu::QueryResult expected_flood(
      makalu::NodeId source, const std::vector<makalu::NodeId>& holders,
      std::uint32_t ttl);

  /// Hop distance from `source` to the nearest holder (UINT32_MAX if none
  /// is reachable).
  [[nodiscard]] std::uint32_t nearest_holder(
      makalu::NodeId source, const std::vector<makalu::NodeId>& holders);

  /// Distances from `root` up to `radius` hops; the visited nodes in BFS
  /// order are returned, their distances readable via distance().
  const std::vector<makalu::NodeId>& ball(makalu::NodeId root,
                                          std::uint32_t radius);
  [[nodiscard]] std::uint32_t distance(makalu::NodeId v) const noexcept {
    return stamp_[v] == epoch_ ? dist_[v] : kUnreached;
  }

  static constexpr std::uint32_t kUnreached = 0xFFFFFFFFu;

 private:
  void begin();
  void mark_holders(const std::vector<makalu::NodeId>& holders);
  [[nodiscard]] bool is_holder(makalu::NodeId v) const noexcept {
    return holder_stamp_[v] == epoch_;
  }

  const makalu::CsrGraph* graph_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> holder_stamp_;
  std::vector<std::uint32_t> dist_;
  std::vector<makalu::NodeId> order_;
};

/// Field-by-field equality of the accounting a checker pins; `what`
/// names the first field that differs.
[[nodiscard]] bool same_result(const makalu::QueryResult& a,
                               const makalu::QueryResult& b,
                               std::string* what = nullptr);

/// Blocked-table soundness after churn: for each holder h of `object` and
/// each node v within depth-1 hops of h, every arc u->v whose filter must
/// hold the key (level d = dist(v, h), reachable from v through a
/// neighbor other than u, or d = 0) reports it. Returns the number of
/// arcs that miss it; `arcs_checked` accumulates the arcs inspected.
[[nodiscard]] std::size_t missing_arc_keys(const makalu::AbfRouter& router,
                                           const makalu::ObjectCatalog& catalog,
                                           makalu::ObjectId object, Bfs& bfs,
                                           std::uint64_t* arcs_checked);

/// Every base bit a fresh build sets is also set in the live table.
[[nodiscard]] bool base_superset(const makalu::BlockedAbfTable& live,
                                 const makalu::BlockedAbfTable& fresh);

/// Counting-table slots at kSaturation, and all slots.
struct SaturationCensus {
  std::uint64_t saturated = 0;
  std::uint64_t slots = 0;
};
[[nodiscard]] SaturationCensus saturation_census(
    const makalu::CountingAbfTable& counting);

/// Clears one of `key`'s probe positions in level 0 of `node`'s base
/// stack: the deliberately corrupted table of the benchmark's own test.
void clear_key_bit(const makalu::AbfRouter& router, makalu::NodeId node,
                   std::uint64_t key);

}  // namespace perfbench
