#ifndef QUICK_FDB_CONFLICT_TRACKER_H_
#define QUICK_FDB_CONFLICT_TRACKER_H_

#include <deque>
#include <vector>

#include "common/bytes.h"
#include "fdb/resolver.h"
#include "fdb/types.h"

namespace quick::fdb {

/// Legacy linear-scan Resolver: a deque of commit records scanned
/// newest-first on every check, O(tracked commits × read ranges) per
/// HasConflict. The Database uses the IntervalResolver that replaced it;
/// this one stays as the oracle of resolver_differential_test and
/// conflict_tracker_test and as bench_micro_resolver's baseline.
///
/// Retention is whatever the caller prunes to: the Database prunes it at
/// the MVCC read floor (the 5s window), so the tracked set is bounded by
/// the commits of the last window — not by a commit count.
class ConflictTracker : public Resolver {
 public:
  void AddCommit(Version version, std::vector<KeyRange> write_ranges) override;

  bool HasConflict(const std::vector<KeyRange>& read_ranges,
                   Version read_version) const override;

  Version MinCheckableVersion() const override { return min_checkable_; }

  /// Forgets commits at or below `version`.
  void Prune(Version version) override;

  size_t TrackedCount() const override { return commits_.size(); }
  size_t TrackedCommitCount() const { return commits_.size(); }

 private:
  struct CommitRecord {
    Version version;
    std::vector<KeyRange> write_ranges;
  };

  std::deque<CommitRecord> commits_;  // ascending version order
  Version min_checkable_ = 0;
};

}  // namespace quick::fdb

#endif  // QUICK_FDB_CONFLICT_TRACKER_H_
