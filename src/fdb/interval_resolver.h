#ifndef QUICK_FDB_INTERVAL_RESOLVER_H_
#define QUICK_FDB_INTERVAL_RESOLVER_H_

#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "fdb/resolver.h"
#include "fdb/types.h"

namespace quick::fdb {

/// Interval-map Resolver: the default conflict-resolution structure of the
/// simulated cluster, modelled on FoundationDB's skip-list resolver.
///
/// Instead of a list of commit records, it keeps the key space partitioned
/// into disjoint, sorted intervals ("nodes"), each annotated with the
/// maximum commit version that last wrote it — a sorted interval map keyed
/// by node start. Because commit versions are assigned monotonically, a new
/// commit's write range simply replaces whatever nodes it overlaps (their
/// versions are always older), splitting boundary nodes as needed:
///
///   AddCommit:   O(log n + nodes replaced), amortized — every replaced
///                node was inserted once.
///   HasConflict: O(log n + nodes overlapping the read ranges), with an
///                early exit on the first node newer than the read version.
///   Prune:       incremental via a lazy min-heap of (version, node start)
///                entries — each heap entry is popped exactly once, so
///                pruning is O(log n) amortized per inserted node rather
///                than a full sweep.
///
/// The linear-scan equivalent lives in conflict_tracker.h; both give
/// identical verdicts for read versions >= the prune floor (differentially
/// tested in tests/fdb/resolver_differential_test.cc).
class IntervalResolver : public Resolver {
 public:
  void AddCommit(Version version, std::vector<KeyRange> write_ranges) override;

  bool HasConflict(const std::vector<KeyRange>& read_ranges,
                   Version read_version) const override;

  Version MinCheckableVersion() const override { return min_checkable_; }

  void Prune(Version version) override;

  size_t TrackedCount() const override { return nodes_.size(); }
  size_t NodeCount() const { return nodes_.size(); }

 private:
  struct Node {
    std::string end;  // half-open [map key, end)
    Version version;  // max commit version that wrote this interval
  };

  /// Inserts [begin, end) at `version`, splitting/replacing overlaps.
  void Insert(const std::string& begin, const std::string& end,
              Version version);

  /// Disjoint intervals keyed by start key, covering exactly the key space
  /// written within the retention window.
  std::map<std::string, Node> nodes_;

  /// Lazy prune index: (version, start key) pushed on every node insert.
  /// Entries whose node was since replaced or re-keyed are skipped at pop
  /// time (the version recorded in the node disambiguates).
  using HeapEntry = std::pair<Version, std::string>;
  /// Min-heap order on the version alone: one commit's entries share a
  /// version, and ordering them by key would only cost string compares.
  struct LaterVersion {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.first > b.first;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, LaterVersion>
      prune_heap_;

  Version min_checkable_ = 0;
};

}  // namespace quick::fdb

#endif  // QUICK_FDB_INTERVAL_RESOLVER_H_
