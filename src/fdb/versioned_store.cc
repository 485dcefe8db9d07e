#include "fdb/versioned_store.h"

#include <algorithm>

namespace quick::fdb {

namespace {

uint64_t DecodeLEPadded(const std::string& s) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8 && i < s.size(); ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(s[i])) << (8 * i);
  }
  return v;
}

std::string EncodeLE(uint64_t v, size_t width) {
  std::string out(width, '\0');
  for (size_t i = 0; i < width; ++i) {
    out[i] = static_cast<char>(v & 0xFF);
    v >>= 8;
  }
  return out;
}

// The first entry of a version-ordered chain newer than `version`.
template <typename Chain>
auto FirstNewer(Chain& chain, Version version) {
  return std::upper_bound(
      chain.begin(), chain.end(), version,
      [](Version v, const auto& entry) { return v < entry.version; });
}

}  // namespace

std::string ApplyAtomicOp(AtomicOp op, const std::optional<std::string>& base,
                          const std::string& operand) {
  switch (op) {
    case AtomicOp::kAdd: {
      const uint64_t a = base.has_value() ? DecodeLEPadded(*base) : 0;
      const uint64_t b = DecodeLEPadded(operand);
      // Result width follows the operand, as in FDB.
      return EncodeLE(a + b, std::min<size_t>(operand.size(), 8));
    }
    case AtomicOp::kMin: {
      if (!base.has_value()) {
        return EncodeLE(0, std::min<size_t>(operand.size(), 8));
      }
      const uint64_t a = DecodeLEPadded(*base);
      const uint64_t b = DecodeLEPadded(operand);
      return EncodeLE(std::min(a, b), std::min<size_t>(operand.size(), 8));
    }
    case AtomicOp::kMax: {
      const uint64_t a = base.has_value() ? DecodeLEPadded(*base) : 0;
      const uint64_t b = DecodeLEPadded(operand);
      return EncodeLE(std::max(a, b), std::min<size_t>(operand.size(), 8));
    }
    case AtomicOp::kByteMin:
      if (!base.has_value()) return operand;
      return std::min(*base, operand);
    case AtomicOp::kByteMax:
      if (!base.has_value()) return operand;
      return std::max(*base, operand);
  }
  return operand;
}

void VersionedStore::Apply(const std::vector<Mutation>& mutations,
                           Version version, uint16_t batch_order) {
  for (const Mutation& m : mutations) {
    switch (m.type) {
      case Mutation::Type::kSet:
        Put(m.key, version, m.value);
        break;
      case Mutation::Type::kClear: {
        // Only a live chain takes a tombstone; a dead one already reads
        // as absent.
        auto it = live_.find(m.key);
        if (it != live_.end()) Kill(it, version);
        break;
      }
      case Mutation::Type::kClearRange: {
        for (auto it = live_.lower_bound(m.key);
             it != live_.end() && it->first < m.end_key;) {
          it = Kill(it, version);
        }
        break;
      }
      case Mutation::Type::kAtomic: {
        std::optional<std::string> base;
        if (!m.base_cleared) {
          // Later mutations in the same commit batch see earlier ones:
          // the chain tail is the freshest value.
          if (const Node* node = Find(m.key)) {
            base = node->second.back().value;
          }
        }
        Put(m.key, version, ApplyAtomicOp(m.op, base, m.value));
        break;
      }
      case Mutation::Type::kSetVersionstampedKey: {
        Put(m.key + VersionstampFor(version, batch_order) + m.end_key,
            version, m.value);
        break;
      }
      case Mutation::Type::kSetVersionstampedValue: {
        Put(m.key, version, m.value + VersionstampFor(version, batch_order));
        break;
      }
    }
  }
}

std::string VersionstampFor(Version version, uint16_t batch_order) {
  std::string stamp = EncodeBigEndian64(static_cast<uint64_t>(version));
  stamp.push_back(static_cast<char>(batch_order >> 8));
  stamp.push_back(static_cast<char>(batch_order & 0xFF));
  return stamp;
}

const VersionedStore::Node* VersionedStore::Find(std::string_view key) const {
  auto it = live_.find(key);
  if (it != live_.end()) return &*it;
  it = dead_.find(key);
  return it != dead_.end() ? &*it : nullptr;
}

void VersionedStore::Put(const std::string& key, Version version,
                         std::string value) {
  auto it = live_.lower_bound(key);
  if (it == live_.end() || it->first != key) {
    auto dead = dead_.find(key);
    if (dead == dead_.end()) {
      it = live_.emplace_hint(it, key, Chain{});
    } else {
      // Revived. A dead chain's latest death stays logged until the chain
      // is erased: it is the one at the tombstone's version that still
      // names the chain. It goes stale, and the node moves back to live_.
      const Version died = dead->second.back().version;
      auto death = std::lower_bound(
          deaths_.begin(), deaths_.end(), died,
          [](const Death& d, Version v) { return d.version < v; });
      while (death->node != &*dead) ++death;
      death->node = nullptr;
      it = live_.insert(it, dead_.extract(dead));
    }
  }
  it->second.push_back({version, std::move(value)});
  appended_.push_back({version, &*it});
}

VersionedStore::ChainMap::iterator VersionedStore::Kill(ChainMap::iterator it,
                                                        Version version) {
  Node* node = &*it;
  const auto next = std::next(it);
  node->second.push_back({version, std::nullopt});
  appended_.push_back({version, node});
  deaths_.push_back({version, node, dead_.insert(live_.extract(it)).position});
  return next;
}

const std::optional<std::string>* VersionedStore::GetInChain(
    const Chain& chain, Version version) const {
  if (chain.empty()) return nullptr;
  // Read-version-floor fast path: most reads run at a recent snapshot, so
  // the tail entry usually already satisfies version <= read version —
  // skip the binary search entirely.
  if (chain.back().version <= version) return &chain.back().value;
  // Chains are append-only in version order; find the last entry with
  // entry.version <= version. Entries sharing a version (one commit batch)
  // sort stably in apply order, and upper_bound lands past the last of
  // them — the batch's final write wins, matching intra-batch order.
  auto it = FirstNewer(chain, version);
  if (it == chain.begin()) return nullptr;
  return &std::prev(it)->value;
}

std::optional<std::string> VersionedStore::Get(const std::string& key,
                                               Version version) const {
  const Node* node = Find(key);
  if (node == nullptr) return std::nullopt;
  const std::optional<std::string>* v = GetInChain(node->second, version);
  return v == nullptr ? std::nullopt : *v;
}

template <typename Keep>
std::vector<const VersionedStore::Node*> VersionedStore::DiedAfter(
    Version version, const Keep& keep, size_t* examined) const {
  // A chain that died at or before `version` reads as absent there, so
  // only the deaths after it matter; a chain that died more than once
  // counts at its latest death, and a revived one is in live_.
  std::vector<const Node*> out;
  for (auto d = deaths_.rbegin(); d != deaths_.rend() && d->version > version;
       ++d) {
    ++*examined;
    if (d->node != nullptr && keep(d->node->first)) out.push_back(d->node);
  }
  std::sort(out.begin(), out.end(),
            [](const Node* a, const Node* b) { return a->first < b->first; });
  return out;
}

namespace {

// Visits the live chains from `it` while `in_range` holds, merged with
// `dead` (in the same walk order, which `before` defines), until `visit`
// returns false.
template <typename It, typename InRange, typename Node, typename Before,
          typename Visit>
void MergeWalk(It it, It end, const InRange& in_range,
               const std::vector<const Node*>& dead, const Before& before,
               const Visit& visit) {
  auto d = dead.begin();
  for (; it != end && in_range(it->first); ++it) {
    for (; d != dead.end() && before((*d)->first, it->first); ++d) {
      if (!visit(**d)) return;
    }
    if (!visit(*it)) return;
  }
  for (; d != dead.end(); ++d) {
    if (!visit(**d)) return;
  }
}

}  // namespace

size_t VersionedStore::ScanRange(const KeyRange& range, Version version,
                                 const RangeOptions& options,
                                 const RangeSink& sink) const {
  size_t visited = 0;
  std::vector<const Node*> dead = DiedAfter(
      version, [&range](std::string_view key) { return range.Contains(key); },
      &visited);
  int emitted = 0;
  auto visit = [&](const Node& node) {
    ++visited;
    const std::optional<std::string>* v = GetInChain(node.second, version);
    if (v == nullptr || !v->has_value()) return true;  // dead here; continue
    ++emitted;
    if (!sink(node.first, **v)) return false;
    return options.limit <= 0 || emitted < options.limit;
  };
  if (!options.reverse) {
    MergeWalk(
        live_.lower_bound(range.begin), live_.end(),
        [&range](const std::string& key) { return key < range.end; }, dead,
        std::less<std::string>(), visit);
  } else {
    std::reverse(dead.begin(), dead.end());
    MergeWalk(
        std::make_reverse_iterator(live_.lower_bound(range.end)),
        live_.rend(),
        [&range](const std::string& key) { return key >= range.begin; },
        dead, std::greater<std::string>(), visit);
  }
  return visited;
}

std::vector<KeyValue> VersionedStore::GetRange(
    const KeyRange& range, Version version,
    const RangeOptions& options) const {
  std::vector<KeyValue> out;
  ScanRange(range, version, options,
            [&out](std::string_view key, std::string_view value) {
              out.push_back({std::string(key), std::string(value)});
              return true;
            });
  return out;
}

size_t VersionedStore::Prune(Version min_version) {
  size_t visited = 0;
  // An entry at or below the floor hides every older entry of its chain
  // from every readable version. A chain drops those once they are half of
  // it, so a hot key (a zone's count key takes every enqueue and complete)
  // costs O(1) amortized per retired entry.
  while (!appended_.empty() && appended_.front().version <= min_version) {
    Chain& chain = appended_.front().node->second;
    appended_.pop_front();
    ++visited;
    if (chain.size() >= 2 && chain[chain.size() / 2].version <= min_version) {
      chain.erase(chain.begin(), std::prev(FirstNewer(chain, min_version)));
    }
  }
  // A chain still dead from a death at or below the floor reads as absent
  // at every readable version, and no retained entry refers to it; erase
  // it so write-then-clear churn (QuiCK's queue workload) cannot grow the
  // key map without bound.
  while (!deaths_.empty() && deaths_.front().version <= min_version) {
    ++visited;
    if (deaths_.front().node != nullptr) dead_.erase(deaths_.front().in_dead);
    deaths_.pop_front();
  }
  return visited;
}

void VersionedStore::LoadSnapshotEntry(std::string key, Version version,
                                       std::string value) {
  live_.insert_or_assign(live_.end(), std::move(key),
                         Chain{{version, std::move(value)}});
}

bool VersionedStore::CollectSnapshotChunk(Version version,
                                          std::string* resume_key,
                                          size_t max_keys,
                                          std::vector<KeyValue>* out) const {
  const std::string after = *resume_key;
  auto past_resume = [&after](std::string_view key) {
    return after.empty() || key > after;
  };
  size_t examined = 0;
  const std::vector<const Node*> dead =
      DiedAfter(version, past_resume, &examined);
  size_t visited = 0;
  bool exhausted = true;
  MergeWalk(
      after.empty() ? live_.begin() : live_.upper_bound(after), live_.end(),
      [](const std::string&) { return true; }, dead,
      std::less<std::string>(), [&](const Node& node) {
        if (visited >= max_keys) {
          // resume_key already names the last visited key.
          exhausted = false;
          return false;
        }
        ++visited;
        *resume_key = node.first;
        const std::optional<std::string>* v = GetInChain(node.second, version);
        if (v != nullptr && v->has_value()) out->push_back({node.first, **v});
        return true;
      });
  return exhausted;
}

size_t VersionedStore::LiveKeyCount() const { return live_.size(); }

size_t VersionedStore::TotalEntryCount() const {
  size_t n = 0;
  for (const auto& [key, chain] : live_) n += chain.size();
  for (const auto& [key, chain] : dead_) n += chain.size();
  return n;
}

}  // namespace quick::fdb
