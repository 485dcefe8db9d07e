#include "fdb/versioned_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"

namespace quick::fdb {
namespace {

Mutation SetMut(std::string key, std::string value) {
  Mutation m;
  m.type = Mutation::Type::kSet;
  m.key = std::move(key);
  m.value = std::move(value);
  return m;
}

Mutation ClearMut(std::string key) {
  Mutation m;
  m.type = Mutation::Type::kClear;
  m.key = std::move(key);
  return m;
}

Mutation ClearRangeMut(std::string begin, std::string end) {
  Mutation m;
  m.type = Mutation::Type::kClearRange;
  m.key = std::move(begin);
  m.end_key = std::move(end);
  return m;
}

Mutation AtomicMut(AtomicOp op, std::string key, std::string operand,
                   bool base_cleared = false) {
  Mutation m;
  m.type = Mutation::Type::kAtomic;
  m.key = std::move(key);
  m.value = std::move(operand);
  m.op = op;
  m.base_cleared = base_cleared;
  return m;
}

TEST(VersionedStoreTest, GetMissingKey) {
  VersionedStore store;
  EXPECT_FALSE(store.Get("nope", 100).has_value());
}

TEST(VersionedStoreTest, SetVisibleAtAndAfterVersion) {
  VersionedStore store;
  store.Apply({SetMut("k", "v")}, 5);
  EXPECT_FALSE(store.Get("k", 4).has_value());
  EXPECT_EQ(store.Get("k", 5).value(), "v");
  EXPECT_EQ(store.Get("k", 100).value(), "v");
}

TEST(VersionedStoreTest, MvccReadsOldVersions) {
  VersionedStore store;
  store.Apply({SetMut("k", "v1")}, 1);
  store.Apply({SetMut("k", "v2")}, 2);
  store.Apply({ClearMut("k")}, 3);
  store.Apply({SetMut("k", "v4")}, 4);
  EXPECT_EQ(store.Get("k", 1).value(), "v1");
  EXPECT_EQ(store.Get("k", 2).value(), "v2");
  EXPECT_FALSE(store.Get("k", 3).has_value());
  EXPECT_EQ(store.Get("k", 4).value(), "v4");
}

TEST(VersionedStoreTest, ClearRangeTombstonesLiveKeys) {
  VersionedStore store;
  store.Apply({SetMut("a", "1"), SetMut("b", "2"), SetMut("c", "3")}, 1);
  store.Apply({ClearRangeMut("a", "c")}, 2);
  EXPECT_FALSE(store.Get("a", 2).has_value());
  EXPECT_FALSE(store.Get("b", 2).has_value());
  EXPECT_EQ(store.Get("c", 2).value(), "3");
  // Old snapshot unaffected.
  EXPECT_EQ(store.Get("a", 1).value(), "1");
}

TEST(VersionedStoreTest, SetAfterClearRangeSameVersionWins) {
  VersionedStore store;
  store.Apply({SetMut("b", "old")}, 1);
  // One commit clearing a range then re-setting a key inside it.
  store.Apply({ClearRangeMut("a", "z"), SetMut("b", "new")}, 2);
  EXPECT_EQ(store.Get("b", 2).value(), "new");
}

TEST(VersionedStoreTest, GetRangeBasic) {
  VersionedStore store;
  store.Apply({SetMut("a", "1"), SetMut("b", "2"), SetMut("d", "4")}, 1);
  auto kvs = store.GetRange(KeyRange{"a", "d"}, 1);
  ASSERT_EQ(kvs.size(), 2u);
  EXPECT_EQ(kvs[0].key, "a");
  EXPECT_EQ(kvs[1].key, "b");
}

TEST(VersionedStoreTest, GetRangeRespectsVersion) {
  VersionedStore store;
  store.Apply({SetMut("a", "1")}, 1);
  store.Apply({SetMut("b", "2")}, 2);
  EXPECT_EQ(store.GetRange(KeyRange::All(), 1).size(), 1u);
  EXPECT_EQ(store.GetRange(KeyRange::All(), 2).size(), 2u);
}

TEST(VersionedStoreTest, GetRangeSkipsTombstones) {
  VersionedStore store;
  store.Apply({SetMut("a", "1"), SetMut("b", "2")}, 1);
  store.Apply({ClearMut("a")}, 2);
  auto kvs = store.GetRange(KeyRange::All(), 2);
  ASSERT_EQ(kvs.size(), 1u);
  EXPECT_EQ(kvs[0].key, "b");
}

TEST(VersionedStoreTest, GetRangeLimitAndReverse) {
  VersionedStore store;
  store.Apply({SetMut("a", "1"), SetMut("b", "2"), SetMut("c", "3")}, 1);
  RangeOptions fwd;
  fwd.limit = 2;
  auto kvs = store.GetRange(KeyRange::All(), 1, fwd);
  ASSERT_EQ(kvs.size(), 2u);
  EXPECT_EQ(kvs[0].key, "a");

  RangeOptions rev;
  rev.limit = 2;
  rev.reverse = true;
  kvs = store.GetRange(KeyRange::All(), 1, rev);
  ASSERT_EQ(kvs.size(), 2u);
  EXPECT_EQ(kvs[0].key, "c");
  EXPECT_EQ(kvs[1].key, "b");
}

TEST(VersionedStoreTest, AtomicAddFromMissing) {
  VersionedStore store;
  store.Apply({AtomicMut(AtomicOp::kAdd, "n", EncodeLittleEndian64(5))}, 1);
  EXPECT_EQ(DecodeLittleEndian64(store.Get("n", 1).value()), 5u);
}

TEST(VersionedStoreTest, AtomicAddAccumulates) {
  VersionedStore store;
  store.Apply({AtomicMut(AtomicOp::kAdd, "n", EncodeLittleEndian64(5))}, 1);
  store.Apply({AtomicMut(AtomicOp::kAdd, "n", EncodeLittleEndian64(7))}, 2);
  EXPECT_EQ(DecodeLittleEndian64(store.Get("n", 2).value()), 12u);
  EXPECT_EQ(DecodeLittleEndian64(store.Get("n", 1).value()), 5u);
}

TEST(VersionedStoreTest, AtomicAddNegativeWraps) {
  VersionedStore store;
  store.Apply({AtomicMut(AtomicOp::kAdd, "n", EncodeLittleEndian64(5))}, 1);
  // Two's-complement -2.
  store.Apply({AtomicMut(AtomicOp::kAdd, "n",
                         EncodeLittleEndian64(static_cast<uint64_t>(-2)))},
              2);
  EXPECT_EQ(DecodeLittleEndian64(store.Get("n", 2).value()), 3u);
}

TEST(VersionedStoreTest, AtomicMinMax) {
  VersionedStore store;
  store.Apply({AtomicMut(AtomicOp::kMax, "m", EncodeLittleEndian64(10))}, 1);
  store.Apply({AtomicMut(AtomicOp::kMax, "m", EncodeLittleEndian64(3))}, 2);
  EXPECT_EQ(DecodeLittleEndian64(store.Get("m", 2).value()), 10u);
  store.Apply({AtomicMut(AtomicOp::kMin, "m", EncodeLittleEndian64(4))}, 3);
  EXPECT_EQ(DecodeLittleEndian64(store.Get("m", 3).value()), 4u);
}

TEST(VersionedStoreTest, AtomicByteMinMax) {
  VersionedStore store;
  store.Apply({AtomicMut(AtomicOp::kByteMax, "b", "mango")}, 1);
  store.Apply({AtomicMut(AtomicOp::kByteMax, "b", "apple")}, 2);
  EXPECT_EQ(store.Get("b", 2).value(), "mango");
  store.Apply({AtomicMut(AtomicOp::kByteMin, "b", "kiwi")}, 3);
  EXPECT_EQ(store.Get("b", 3).value(), "kiwi");
}

TEST(VersionedStoreTest, AtomicBaseClearedIgnoresStorage) {
  VersionedStore store;
  store.Apply({SetMut("n", EncodeLittleEndian64(100))}, 1);
  store.Apply({AtomicMut(AtomicOp::kAdd, "n", EncodeLittleEndian64(5),
                         /*base_cleared=*/true)},
              2);
  EXPECT_EQ(DecodeLittleEndian64(store.Get("n", 2).value()), 5u);
}

TEST(VersionedStoreTest, AtomicSeesEarlierMutationInSameCommit) {
  VersionedStore store;
  store.Apply({SetMut("n", EncodeLittleEndian64(10)),
               AtomicMut(AtomicOp::kAdd, "n", EncodeLittleEndian64(1))},
              1);
  EXPECT_EQ(DecodeLittleEndian64(store.Get("n", 1).value()), 11u);
}

TEST(VersionedStoreTest, PruneDropsOldVersionsKeepsVisible) {
  VersionedStore store;
  store.Apply({SetMut("k", "v1")}, 1);
  store.Apply({SetMut("k", "v2")}, 5);
  store.Apply({SetMut("k", "v3")}, 9);
  store.Prune(5);
  // Reads at or above the prune floor still correct.
  EXPECT_EQ(store.Get("k", 5).value(), "v2");
  EXPECT_EQ(store.Get("k", 9).value(), "v3");
  EXPECT_EQ(store.TotalEntryCount(), 2u);
}

TEST(VersionedStoreTest, PruneRemovesDeadTombstones) {
  VersionedStore store;
  store.Apply({SetMut("k", "v")}, 1);
  store.Apply({ClearMut("k")}, 2);
  store.Prune(10);
  EXPECT_EQ(store.TotalEntryCount(), 0u);
  EXPECT_EQ(store.LiveKeyCount(), 0u);
}

TEST(VersionedStoreTest, LiveKeyCount) {
  VersionedStore store;
  store.Apply({SetMut("a", "1"), SetMut("b", "2")}, 1);
  EXPECT_EQ(store.LiveKeyCount(), 2u);
  store.Apply({ClearMut("a")}, 2);
  EXPECT_EQ(store.LiveKeyCount(), 1u);
}

TEST(ApplyAtomicOpTest, AddResultWidthFollowsOperand) {
  // 4-byte operand produces a 4-byte result, as in FDB.
  std::string operand("\x05\x00\x00\x00", 4);
  std::string result = ApplyAtomicOp(AtomicOp::kAdd, std::nullopt, operand);
  EXPECT_EQ(result.size(), 4u);
  EXPECT_EQ(DecodeLittleEndian64(result), 5u);
}

TEST(VersionedStoreTest, ScanRangeStreamsInOrderAndHonorsLimit) {
  VersionedStore store;
  store.Apply({SetMut("a", "1"), SetMut("b", "2"), SetMut("c", "3"),
               SetMut("d", "4")},
              1);
  store.Apply({ClearMut("b")}, 2);

  std::vector<std::string> keys;
  RangeOptions opts;
  opts.limit = 2;
  store.ScanRange(KeyRange{"a", "z"}, 2, opts,
                  [&](std::string_view k, std::string_view) {
                    keys.emplace_back(k);
                    return true;
                  });
  // Tombstoned "b" is skipped during iteration; limit counts emitted pairs.
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "c"}));
}

TEST(VersionedStoreTest, ScanRangeReverse) {
  VersionedStore store;
  store.Apply({SetMut("a", "1"), SetMut("b", "2"), SetMut("c", "3")}, 1);
  std::vector<std::string> keys;
  RangeOptions opts;
  opts.reverse = true;
  opts.limit = 2;
  store.ScanRange(KeyRange{"a", "z"}, 1, opts,
                  [&](std::string_view k, std::string_view) {
                    keys.emplace_back(k);
                    return true;
                  });
  EXPECT_EQ(keys, (std::vector<std::string>{"c", "b"}));
}

TEST(VersionedStoreTest, ScanRangeSinkCanStopEarly) {
  VersionedStore store;
  for (char c = 'a'; c <= 'j'; ++c) {
    store.Apply({SetMut(std::string(1, c), "v")}, 1);
  }
  int visited = 0;
  store.ScanRange(KeyRange{"a", "z"}, 1, RangeOptions{},
                  [&](std::string_view, std::string_view) {
                    ++visited;
                    return visited < 3;
                  });
  EXPECT_EQ(visited, 3);
}

TEST(VersionedStoreTest, BatchOrderLastMemberWinsAtSharedVersion) {
  VersionedStore store;
  // Two commit-batch members share version 7; member 1 overwrites what
  // member 0 wrote. A reader at 7 must see member 1's value; a reader at 6
  // must see neither.
  store.Apply({SetMut("k", "first")}, 7, /*batch_order=*/0);
  store.Apply({SetMut("k", "second")}, 7, /*batch_order=*/1);
  EXPECT_EQ(store.Get("k", 7).value(), "second");
  EXPECT_FALSE(store.Get("k", 6).has_value());
}

TEST(VersionedStoreTest, VersionstampBatchOrderBytes) {
  EXPECT_EQ(VersionstampFor(1, 0).size(), 10u);
  // Batch order is the low 2 bytes: same version, increasing order sorts
  // between the version and its successor.
  EXPECT_LT(VersionstampFor(1, 0), VersionstampFor(1, 1));
  EXPECT_LT(VersionstampFor(1, 65535), VersionstampFor(2, 0));

  VersionedStore store;
  Mutation m;
  m.type = Mutation::Type::kSetVersionstampedKey;
  m.key = "q/";
  m.value = "a";
  store.Apply({m}, 3, 0);
  m.value = "b";
  store.Apply({m}, 3, 1);
  // Distinct batch orders produce distinct keys even at a shared version.
  EXPECT_EQ(store.GetRange(KeyRange::Prefix("q/"), 3).size(), 2u);
}

// Regression: sustained enqueue/dequeue churn (write then clear) must not
// grow the key map or the version chains without bound once pruning passes
// the clears — the store converges back to its live size.
TEST(VersionedStoreTest, ChurnConvergesAfterPrune) {
  VersionedStore store;
  Version v = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10; ++i) {
      store.Apply({SetMut("item" + std::to_string(round * 10 + i), "x")}, ++v);
    }
    for (int i = 0; i < 10; ++i) {
      store.Apply({ClearMut("item" + std::to_string(round * 10 + i))}, ++v);
    }
    // Periodic pruning as the Database performs it (monotone floors).
    if (round % 7 == 6) store.Prune(v - 15);
  }
  store.Apply({SetMut("survivor", "s")}, ++v);
  store.Prune(v);
  EXPECT_EQ(store.LiveKeyCount(), 1u);
  EXPECT_EQ(store.TotalEntryCount(), 1u);
}


// Model-based check: a seeded random history of Set/Clear/ClearRange/Atomic
// batches (several members sharing a version), interleaved with monotone
// Prune floors, must read exactly like a never-pruned model at every
// version at or above the floor. The model keeps each key's whole history
// in one map and shares no code with the store, so it covers the dead-chain
// merge, the history-driven prune and the chunked snapshot alike.
class StoreModel {
 public:
  void Apply(const std::vector<Mutation>& mutations, Version version) {
    for (const Mutation& m : mutations) {
      switch (m.type) {
        case Mutation::Type::kSet:
          history_[m.key].push_back({version, m.value});
          break;
        case Mutation::Type::kClear:
          history_[m.key].push_back({version, std::nullopt});
          break;
        case Mutation::Type::kClearRange:
          for (auto it = history_.lower_bound(m.key);
               it != history_.end() && it->first < m.end_key; ++it) {
            it->second.push_back({version, std::nullopt});
          }
          break;
        case Mutation::Type::kAtomic: {
          std::optional<std::string> base;
          auto it = history_.find(m.key);
          if (!m.base_cleared && it != history_.end()) {
            base = it->second.back().second;
          }
          history_[m.key].push_back(
              {version, ApplyAtomicOp(m.op, base, m.value)});
          break;
        }
        default:
          FAIL() << "unmodelled mutation";
      }
    }
  }

  std::optional<std::string> Get(const std::string& key,
                                 Version version) const {
    auto it = history_.find(key);
    if (it == history_.end()) return std::nullopt;
    // Entries are in version order: the last one at or below `version`.
    auto next = std::upper_bound(
        it->second.begin(), it->second.end(), version,
        [](Version v, const auto& entry) { return v < entry.first; });
    if (next == it->second.begin()) return std::nullopt;
    return std::prev(next)->second;
  }

  std::vector<KeyValue> Range(const KeyRange& range, Version version,
                              const RangeOptions& options) const {
    std::vector<KeyValue> out;
    for (auto it = history_.lower_bound(range.begin);
         it != history_.end() && it->first < range.end; ++it) {
      if (std::optional<std::string> v = Get(it->first, version)) {
        out.push_back({it->first, *v});
      }
    }
    if (options.reverse) std::reverse(out.begin(), out.end());
    if (options.limit > 0 && out.size() > static_cast<size_t>(options.limit)) {
      out.resize(static_cast<size_t>(options.limit));
    }
    return out;
  }

  size_t LiveCount(Version version) const {
    return Range(KeyRange{"", "\xFF"}, version, RangeOptions{}).size();
  }

 private:
  std::map<std::string,
           std::vector<std::pair<Version, std::optional<std::string>>>>
      history_;
};

std::string ModelKey(Random& rng) {
  return "k" + std::to_string(10 + rng.Uniform(30));
}

Mutation RandomMutation(Random& rng) {
  const uint64_t roll = rng.Uniform(100);
  if (roll < 40) {
    return SetMut(ModelKey(rng), "v" + std::to_string(rng.Uniform(1000)));
  }
  if (roll < 70) return ClearMut(ModelKey(rng));
  if (roll < 80) {
    std::string a = ModelKey(rng);
    std::string b = ModelKey(rng);
    if (b < a) std::swap(a, b);
    return ClearRangeMut(a, b + "\x01");
  }
  return AtomicMut(AtomicOp::kAdd, ModelKey(rng),
                   EncodeLittleEndian64(1 + rng.Uniform(9)),
                   /*base_cleared=*/rng.Uniform(8) == 0);
}

std::vector<KeyValue> Scan(const VersionedStore& store, const KeyRange& range,
                           Version version, const RangeOptions& options) {
  std::vector<KeyValue> out;
  store.ScanRange(range, version, options,
                  [&out](std::string_view key, std::string_view value) {
                    out.push_back({std::string(key), std::string(value)});
                    return true;
                  });
  return out;
}

std::vector<KeyValue> Snapshot(const VersionedStore& store, Version version,
                               size_t chunk_keys) {
  std::vector<KeyValue> out;
  std::string resume;
  while (!store.CollectSnapshotChunk(version, &resume, chunk_keys, &out)) {
  }
  return out;
}

// Number of read checks (Get, ScanRange, snapshot) that disagreed with the
// model over one seeded history.
int ModelMismatches(uint64_t seed) {
  Random rng(seed);
  VersionedStore store;
  StoreModel model;
  Version version = 0;
  Version floor = 0;
  int mismatches = 0;
  for (int batch = 0; batch < 400; ++batch) {
    ++version;
    const int members = 1 + static_cast<int>(rng.Uniform(3));
    for (int member = 0; member < members; ++member) {
      std::vector<Mutation> mutations;
      const int n = 1 + static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < n; ++i) mutations.push_back(RandomMutation(rng));
      store.Apply(mutations, version, static_cast<uint16_t>(member));
      model.Apply(mutations, version);
    }
    if (rng.Uniform(10) == 0) {
      floor += static_cast<Version>(
          rng.Uniform(static_cast<uint64_t>(version - floor) + 1));
      store.Prune(floor);
    }
    for (int check = 0; check < 4; ++check) {
      const Version at = floor + static_cast<Version>(rng.Uniform(
                                     static_cast<uint64_t>(version - floor) +
                                     1));
      const std::string key = ModelKey(rng);
      if (store.Get(key, at) != model.Get(key, at)) ++mismatches;
      std::string a = ModelKey(rng);
      std::string b = ModelKey(rng);
      if (b < a) std::swap(a, b);
      const KeyRange range{a, b + "\x01"};
      RangeOptions options;
      options.limit = static_cast<int>(rng.Uniform(6));
      options.reverse = rng.Uniform(2) == 0;
      if (Scan(store, range, at, options) != model.Range(range, at, options)) {
        ++mismatches;
      }
      if (Snapshot(store, at, 1 + rng.Uniform(7)) !=
          model.Range(KeyRange{"", "\xFF"}, at, RangeOptions{})) {
        ++mismatches;
      }
    }
  }
  store.Prune(version);
  const size_t live = model.LiveCount(version);
  if (store.LiveKeyCount() != live) ++mismatches;
  if (store.TotalEntryCount() != live) ++mismatches;
  return mismatches;
}

TEST(VersionedStoreModelTest, RandomHistoriesReadLikeTheModel) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(ModelMismatches(seed), 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace quick::fdb
