#include "fdb/interval_resolver.h"

namespace quick::fdb {

void IntervalResolver::Insert(const std::string& begin, const std::string& end,
                              Version version) {
  // A predecessor node overlapping `begin` is truncated to [its begin,
  // begin); if it extended past `end`, its tail survives as [end, its end)
  // at its own (older) version.
  auto it = nodes_.lower_bound(begin);
  if (it != nodes_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > begin) {
      if (prev->second.end > end) {
        nodes_.emplace(end, Node{prev->second.end, prev->second.version});
        prune_heap_.emplace(prev->second.version, end);
      }
      prev->second.end = begin;
    }
  }
  // Nodes starting inside [begin, end) are superseded: commit versions are
  // monotone, so the incoming version is never older. A node reaching past
  // `end` leaves its tail behind.
  while (it != nodes_.end() && it->first < end) {
    if (it->second.end > end) {
      nodes_.emplace(end, Node{it->second.end, it->second.version});
      prune_heap_.emplace(it->second.version, end);
      nodes_.erase(it);
      break;  // nodes are disjoint: nothing else can start before `end`
    }
    it = nodes_.erase(it);
  }
  nodes_.emplace(begin, Node{end, version});
  prune_heap_.emplace(version, begin);
}

void IntervalResolver::AddCommit(Version version,
                                 std::vector<KeyRange> write_ranges) {
  for (const KeyRange& range : write_ranges) {
    if (range.empty()) continue;
    Insert(range.begin, range.end, version);
  }
}

bool IntervalResolver::HasConflict(const std::vector<KeyRange>& read_ranges,
                                   Version read_version) const {
  for (const KeyRange& range : read_ranges) {
    if (range.empty()) continue;
    auto it = nodes_.lower_bound(range.begin);
    if (it != nodes_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > range.begin &&
          prev->second.version > read_version) {
        return true;
      }
    }
    for (; it != nodes_.end() && it->first < range.end; ++it) {
      if (it->second.version > read_version) return true;
    }
  }
  return false;
}

void IntervalResolver::Prune(Version version) {
  if (version > min_checkable_) min_checkable_ = version;
  // Nodes at or below the floor can never conflict with a checkable read
  // version again. The heap may hold stale entries (node replaced or
  // re-keyed since the push); the version match filters them out.
  while (!prune_heap_.empty() && prune_heap_.top().first <= version) {
    const HeapEntry& top = prune_heap_.top();
    auto it = nodes_.find(top.second);
    if (it != nodes_.end() && it->second.version == top.first) {
      nodes_.erase(it);
    }
    prune_heap_.pop();
  }
}

}  // namespace quick::fdb
