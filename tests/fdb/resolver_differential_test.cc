// Differential test: the interval-map resolver must give verdicts
// identical to the legacy linear-scan ConflictTracker on randomized
// commit/query/prune schedules — for every read version at or above the
// prune floor, which is the regime the Database guarantees (older read
// versions are rejected with kTransactionTooOld before reaching the
// resolver).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "fdb/conflict_tracker.h"
#include "fdb/interval_resolver.h"

namespace quick::fdb {
namespace {

std::string RandomKey(Random& rng, int space) {
  // Two-byte keys over a small alphabet so ranges overlap often.
  std::string k;
  k.push_back(static_cast<char>('a' + rng.Uniform(space)));
  k.push_back(static_cast<char>('a' + rng.Uniform(space)));
  return k;
}

KeyRange RandomRange(Random& rng, int space) {
  std::string a = RandomKey(rng, space);
  std::string b = RandomKey(rng, space);
  if (b < a) std::swap(a, b);
  if (a == b) b.push_back('\x01');  // non-empty range
  return KeyRange{a, b};
}

std::vector<KeyRange> RandomRanges(Random& rng, int space, int max_ranges) {
  std::vector<KeyRange> out;
  const int n = 1 + static_cast<int>(rng.Uniform(max_ranges));
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(RandomRange(rng, space));
  return out;
}

void RunSchedule(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Random rng(seed);
  ConflictTracker legacy;
  IntervalResolver interval;

  Version next_version = 1;
  Version prune_floor = 0;
  constexpr int kSpace = 6;
  constexpr int kOps = 2000;

  for (int op = 0; op < kOps; ++op) {
    const uint64_t roll = rng.Uniform(100);
    if (roll < 45) {
      // Commit: identical write ranges into both, at a fresh version.
      std::vector<KeyRange> writes = RandomRanges(rng, kSpace, 4);
      legacy.AddCommit(next_version, writes);
      interval.AddCommit(next_version, writes);
      ++next_version;
    } else if (roll < 95) {
      // Query at a read version in the checkable window.
      const Version span = next_version - prune_floor;
      const Version read_version =
          prune_floor + static_cast<Version>(rng.Uniform(
                            static_cast<uint64_t>(span) + 1));
      std::vector<KeyRange> reads = RandomRanges(rng, kSpace, 4);
      EXPECT_EQ(legacy.HasConflict(reads, read_version),
                interval.HasConflict(reads, read_version))
          << "verdict divergence at op " << op << " read_version "
          << read_version;
    } else if (next_version > prune_floor + 1) {
      // Prune both to a random floor inside the retained window.
      const Version span = next_version - 1 - prune_floor;
      prune_floor += static_cast<Version>(
          rng.Uniform(static_cast<uint64_t>(span)) + 1);
      legacy.Prune(prune_floor);
      interval.Prune(prune_floor);
      EXPECT_EQ(legacy.MinCheckableVersion(), interval.MinCheckableVersion());
    }
  }
  // Every node has a live retire slot at or below the newest version, so
  // pruning past it leaves nothing behind.
  interval.Prune(next_version);
  EXPECT_EQ(interval.NodeCount(), 0u);
}

TEST(ResolverDifferentialTest, IdenticalVerdictsAcrossSeeds) {
  for (uint64_t seed : {11u, 222u, 3333u, 44444u, 555555u, 6666666u}) {
    RunSchedule(seed);
  }
}

// Directed cases where interval splitting is easy to get wrong.
TEST(IntervalResolverTest, SplitPreservesOlderTails) {
  IntervalResolver r;
  r.AddCommit(10, {KeyRange{"b", "z"}});   // wide old interval
  r.AddCommit(20, {KeyRange{"d", "f"}});   // punches a hole
  // Tail [f, z) must still carry version 10, head [b, d) too.
  EXPECT_TRUE(r.HasConflict({KeyRange{"b", "c"}}, 5));
  EXPECT_FALSE(r.HasConflict({KeyRange{"b", "c"}}, 10));
  EXPECT_TRUE(r.HasConflict({KeyRange{"d", "e"}}, 10));
  EXPECT_FALSE(r.HasConflict({KeyRange{"d", "e"}}, 20));
  EXPECT_TRUE(r.HasConflict({KeyRange{"g", "h"}}, 5));
  EXPECT_FALSE(r.HasConflict({KeyRange{"g", "h"}}, 10));
}

TEST(IntervalResolverTest, PredecessorOverlapDetected) {
  IntervalResolver r;
  r.AddCommit(7, {KeyRange{"a", "m"}});
  // A read range starting inside [a, m) but after its start key must still
  // see the conflict (predecessor check).
  EXPECT_TRUE(r.HasConflict({KeyRange{"f", "g"}}, 3));
  EXPECT_FALSE(r.HasConflict({KeyRange{"m", "n"}}, 3));  // half-open end
}

TEST(IntervalResolverTest, PruneDropsOnlyStaleNodes) {
  IntervalResolver r;
  r.AddCommit(1, {KeyRange{"a", "b"}});
  r.AddCommit(2, {KeyRange{"c", "d"}});
  r.AddCommit(3, {KeyRange{"e", "f"}});
  EXPECT_EQ(r.NodeCount(), 3u);
  r.Prune(2);
  EXPECT_EQ(r.NodeCount(), 1u);
  EXPECT_EQ(r.MinCheckableVersion(), 2);
  EXPECT_TRUE(r.HasConflict({KeyRange{"e", "f"}}, 2));
  EXPECT_FALSE(r.HasConflict({KeyRange{"e", "f"}}, 3));
}

TEST(IntervalResolverTest, RekeyedTailRetiresAtItsOwnVersion) {
  IntervalResolver r;
  r.AddCommit(1, {KeyRange{"b", "z"}});
  // Supersedes [b, d): the version-1 node's tail is re-keyed to [d, z).
  r.AddCommit(5, {KeyRange{"a", "d"}});
  EXPECT_EQ(r.NodeCount(), 2u);
  EXPECT_TRUE(r.HasConflict({KeyRange{"m", "n"}}, 0));
  r.Prune(1);
  EXPECT_EQ(r.NodeCount(), 1u);
  EXPECT_FALSE(r.HasConflict({KeyRange{"d", "z"}}, 1));
  EXPECT_TRUE(r.HasConflict({KeyRange{"b", "c"}}, 1));
  r.Prune(5);
  EXPECT_EQ(r.NodeCount(), 0u);
}

TEST(IntervalResolverTest, SplitTailRetiresAfterTheSplittingCommit) {
  IntervalResolver r;
  r.AddCommit(1, {KeyRange{"a", "z"}});
  // Splits the version-1 node into [a, m) and a new tail [n, z).
  r.AddCommit(5, {KeyRange{"m", "n"}});
  EXPECT_EQ(r.NodeCount(), 3u);
  r.Prune(1);
  // The head retires with its own slot; the tail's slot is the splitting
  // commit's, and its older version never conflicts at the floor.
  EXPECT_EQ(r.NodeCount(), 2u);
  EXPECT_FALSE(r.HasConflict({KeyRange{"p", "q"}}, 1));
  EXPECT_TRUE(r.HasConflict({KeyRange{"m", "m\x01"}}, 1));
  r.Prune(4);
  EXPECT_EQ(r.NodeCount(), 2u);
  r.Prune(5);
  EXPECT_EQ(r.NodeCount(), 0u);
}

TEST(IntervalResolverTest, StaleHeapEntriesDoNotEraseNewerNodes) {
  IntervalResolver r;
  r.AddCommit(1, {KeyRange{"a", "z"}});
  // Rewrites the same start key at a newer version; the heap still holds a
  // (1, "a") entry that must not erase the version-5 node.
  r.AddCommit(5, {KeyRange{"a", "z"}});
  r.Prune(1);
  EXPECT_EQ(r.NodeCount(), 1u);
  EXPECT_TRUE(r.HasConflict({KeyRange{"m", "n"}}, 2));
}

}  // namespace
}  // namespace quick::fdb
