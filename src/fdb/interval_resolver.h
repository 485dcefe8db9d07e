#ifndef QUICK_FDB_INTERVAL_RESOLVER_H_
#define QUICK_FDB_INTERVAL_RESOLVER_H_

#include <deque>
#include <map>
#include <string>
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
///   AddCommit:   O(log n + nodes replaced), amortized — one map search per
///                range; the range's keys are moved into its node, and a
///                replaced node's surviving tail is re-keyed in place.
///   HasConflict: O(log n + nodes overlapping the read ranges), with an
///                early exit on the first node newer than the read version.
///   Prune:       incremental via a FIFO of retire slots, one pushed per
///                node created. Commit versions only grow, so push order is
///                version order; a slot holds its node's map iterator and a
///                live flag that Insert clears when it erases the node, so
///                pruning pops a prefix and erases through the iterators:
///                O(1) amortized per node, with no key search.
///
/// A re-keyed tail keeps its node's slot and retires at its own version. A
/// predecessor's split tail — [end, its end) of a node that straddles a
/// whole new range — is a new node at the older version with a new slot at
/// the splitting commit, so it retires once the floor passes that commit:
/// at most one window later than its own version would, and never with a
/// different verdict, since its version is at or below the floor by then.
///
/// The linear-scan equivalent lives in conflict_tracker.h; both give
/// identical verdicts for read versions >= the prune floor (differentially
/// tested in tests/fdb/resolver_differential_test.cc).
///
/// Not copyable: nodes point into the resolver's own slot FIFO.
class IntervalResolver : public Resolver {
 public:
  IntervalResolver() = default;
  IntervalResolver(const IntervalResolver&) = delete;
  IntervalResolver& operator=(const IntervalResolver&) = delete;

  void AddCommit(Version version, std::vector<KeyRange> write_ranges) override;

  bool HasConflict(const std::vector<KeyRange>& read_ranges,
                   Version read_version) const override;

  Version MinCheckableVersion() const override { return min_checkable_; }

  void Prune(Version version) override;

  size_t TrackedCount() const override { return nodes_.size(); }
  size_t NodeCount() const { return nodes_.size(); }

 private:
  struct Slot;
  struct Node {
    std::string end;  // half-open [map key, end)
    Version version;  // max commit version that wrote this interval
    Slot* slot;       // this node's entry in retire_
  };
  using NodeMap = std::map<std::string, Node>;

  /// One node's place in the prune order. `version` is the commit that
  /// pushed it: the node's own version, or the splitting commit's for a
  /// predecessor's split tail.
  struct Slot {
    Version version;
    NodeMap::iterator node;
    bool live;  // false once Insert erased the node
  };

  /// Inserts [begin, end) at `version`, splitting/replacing overlaps.
  void Insert(std::string begin, std::string end, Version version);

  /// Pushes `node`'s retire slot at commit `version`.
  void Track(NodeMap::iterator node, Version version);

  /// Disjoint intervals keyed by start key, covering exactly the key space
  /// written within the retention window.
  NodeMap nodes_;

  /// Retire slots in push (= version) order. A deque never moves its
  /// elements on push_back/pop_front, so Node::slot stays valid.
  std::deque<Slot> retire_;

  Version min_checkable_ = 0;
};

}  // namespace quick::fdb

#endif  // QUICK_FDB_INTERVAL_RESOLVER_H_
