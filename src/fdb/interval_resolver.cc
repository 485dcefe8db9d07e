#include "fdb/interval_resolver.h"

#include <iterator>
#include <utility>

namespace quick::fdb {

void IntervalResolver::Track(NodeMap::iterator node, Version version) {
  node->second.slot = &retire_.emplace_back(Slot{version, node, true});
}

void IntervalResolver::Insert(std::string begin, std::string end,
                              Version version) {
  // A predecessor node overlapping `begin` is truncated to [its begin,
  // begin); if it extended past `end`, its tail survives as [end, its end)
  // at its own (older) version, under a new slot at this commit. Nothing
  // else can then start inside [begin, end), and `it` is the tail.
  auto it = nodes_.lower_bound(begin);
  if (it != nodes_.begin()) {
    Node& prev = std::prev(it)->second;
    if (prev.end > begin) {
      if (prev.end > end) {
        it = nodes_.emplace_hint(
            it, end, Node{std::move(prev.end), prev.version, nullptr});
        Track(it, version);
      }
      prev.end = begin;
    }
  }
  // Nodes starting inside [begin, end) are superseded: commit versions are
  // monotone, so the incoming version is never older. A node reaching past
  // `end` leaves its tail behind, re-keyed to `end` in place so it keeps
  // its slot.
  while (it != nodes_.end() && it->first < end) {
    if (it->second.end > end) {
      const auto next = std::next(it);
      NodeMap::node_type tail = nodes_.extract(it);
      tail.key() = end;
      it = nodes_.insert(next, std::move(tail));
      it->second.slot->node = it;
      break;  // nodes are disjoint: nothing else can start before `end`
    }
    it->second.slot->live = false;
    it = nodes_.erase(it);
  }
  Track(nodes_.emplace_hint(it, std::move(begin),
                            Node{std::move(end), version, nullptr}),
        version);
}

void IntervalResolver::AddCommit(Version version,
                                 std::vector<KeyRange> write_ranges) {
  for (KeyRange& range : write_ranges) {
    if (range.empty()) continue;
    Insert(std::move(range.begin), std::move(range.end), version);
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
  // version again, and a slot's version is never below its node's. Slots
  // whose node Insert already erased are dropped unseen.
  while (!retire_.empty() && retire_.front().version <= version) {
    const Slot& slot = retire_.front();
    if (slot.live) nodes_.erase(slot.node);
    retire_.pop_front();
  }
}

}  // namespace quick::fdb
