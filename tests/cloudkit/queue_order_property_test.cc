// Parameterized property sweep: for random mixes of priorities (negative
// and positive) and vesting delays, every queue-zone read agrees with a
// sorted model — the §5 ordering contract. Peek returns exactly the vested
// items sorted by (priority, vesting time) and PeekIds agrees with it;
// limited reads return the model's prefix; MinVestingTime is the model's
// minimum, also after a Dequeue in the same transaction (read-your-writes).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <type_traits>

#include "cloudkit/queue_zone.h"
#include "common/random.h"
#include "fdb/database.h"
#include "fdb/retry.h"

namespace quick::ck {
namespace {

struct SweepCase {
  uint64_t seed;
  int num_items;
  int priority_levels;
  int64_t max_delay;
};

struct Model {
  std::string id;
  int64_t priority;
  int64_t vesting;
};

fdb::Database::Options WithClock(Clock* clock) {
  fdb::Database::Options opts;
  opts.clock = clock;
  return opts;
}

/// Fills a zone with the case's random items and advances the clock to a
/// random observation point.
class QueueOrderPropertyTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  static constexpr int64_t kLeaseMillis = 7;

  void SetUp() override {
    const SweepCase& param = GetParam();
    Random rng(param.seed);
    for (int i = 0; i < param.num_items; ++i) {
      // Centered on zero, so most cases mix negative and positive
      // priorities (the tuple encoding's int type code changes at 0).
      const int64_t priority =
          static_cast<int64_t>(rng.Uniform(param.priority_levels)) -
          param.priority_levels / 2;
      const int64_t delay = static_cast<int64_t>(rng.Uniform(param.max_delay));
      std::string id = "item" + std::to_string(i);
      Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
        QueuedItem item;
        item.id = id;
        item.job_type = "sweep";
        item.priority = priority;
        return Zone(&txn).Enqueue(item, delay).status();
      });
      ASSERT_TRUE(st.ok());
      model_.push_back({id, priority, clock_.NowMillis() + delay});
      // Occasionally advance time so enqueue order and vesting diverge.
      if (rng.Bernoulli(0.3)) {
        clock_.AdvanceMillis(static_cast<int64_t>(rng.Uniform(50)));
      }
    }
    clock_.AdvanceMillis(static_cast<int64_t>(rng.Uniform(param.max_delay)));
    now_ = clock_.NowMillis();
  }

  QueueZone Zone(fdb::Transaction* txn) {
    return QueueZone(txn, subspace_, &clock_);
  }

  /// Items vested by `now_` (all items when `all`), sorted by (priority,
  /// vesting, id) — the index's order.
  std::vector<Model> Sorted(bool all = false) const {
    std::vector<Model> out;
    for (const Model& m : model_) {
      if (all || m.vesting <= now_) out.push_back(m);
    }
    std::sort(out.begin(), out.end(), [](const Model& a, const Model& b) {
      return std::tie(a.priority, a.vesting, a.id) <
             std::tie(b.priority, b.vesting, b.id);
    });
    return out;
  }

  ManualClock clock_{500000};
  fdb::Database db_{"sweep", WithClock(&clock_)};
  const tup::Subspace subspace_{tup::Tuple().AddString("q")};
  std::vector<Model> model_;
  int64_t now_ = 0;
};

template <typename T>
std::vector<std::string> IdsOf(const std::vector<T>& items) {
  std::vector<std::string> ids;
  for (const T& item : items) {
    if constexpr (std::is_same_v<T, LeasedItem>) {
      ids.push_back(item.item.id);
    } else {
      ids.push_back(item.id);
    }
  }
  return ids;
}

std::vector<std::string> Prefix(const std::vector<Model>& models, int k) {
  std::vector<std::string> ids = IdsOf(models);
  if (k > 0 && static_cast<int>(ids.size()) > k) ids.resize(k);
  return ids;
}

TEST_P(QueueOrderPropertyTest, PeekOrderMatchesSortedModel) {
  const std::vector<Model> expected = Sorted();
  Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
    QueueZone zone = Zone(&txn);
    QUICK_ASSIGN_OR_RETURN(std::vector<QueuedItem> peeked, zone.Peek(0));
    EXPECT_EQ(peeked.size(), expected.size());
    for (size_t i = 0; i < std::min(peeked.size(), expected.size()); ++i) {
      EXPECT_EQ(peeked[i].id, expected[i].id) << "position " << i;
      EXPECT_EQ(peeked[i].priority, expected[i].priority);
    }
    // PeekIds agrees with Peek.
    QUICK_ASSIGN_OR_RETURN(std::vector<std::string> ids, zone.PeekIds(0));
    EXPECT_EQ(ids, IdsOf(peeked));
    // Count index equals total items regardless of vesting.
    QUICK_ASSIGN_OR_RETURN(int64_t count, zone.Count());
    EXPECT_EQ(count, static_cast<int64_t>(model_.size()));
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
}

TEST_P(QueueOrderPropertyTest, LimitedReadsReturnTheModelPrefix) {
  const std::vector<Model> vested = Sorted();
  const std::vector<Model> all = Sorted(/*all=*/true);
  // A predicate that rejects about half the items, so Peek must read past
  // its first page.
  auto even = [](const QueuedItem& item) { return item.id.back() % 2 == 0; };
  std::vector<Model> vested_even;
  for (const Model& m : vested) {
    if (m.id.back() % 2 == 0) vested_even.push_back(m);
  }
  for (int k : {1, 3}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    // Never committed: every k starts from the same zone.
    fdb::Transaction txn = db_.CreateTransaction();
    QueueZone zone = Zone(&txn);
    Result<std::vector<QueuedItem>> peeked = zone.Peek(k);
    ASSERT_TRUE(peeked.ok());
    EXPECT_EQ(IdsOf(*peeked), Prefix(vested, k));
    Result<std::vector<std::string>> ids = zone.PeekIds(k);
    ASSERT_TRUE(ids.ok());
    EXPECT_EQ(*ids, Prefix(vested, k));
    Result<std::vector<QueuedItem>> filtered = zone.Peek(k, even);
    ASSERT_TRUE(filtered.ok());
    EXPECT_EQ(IdsOf(*filtered), Prefix(vested_even, k));
    Result<std::vector<QueuedItem>> everything = zone.SnapshotAll(k);
    ASSERT_TRUE(everything.ok());
    EXPECT_EQ(IdsOf(*everything), Prefix(all, k));
    Result<std::vector<LeasedItem>> leased = zone.Dequeue(k, kLeaseMillis);
    ASSERT_TRUE(leased.ok());
    EXPECT_EQ(IdsOf(*leased), Prefix(vested, k));
  }
}

TEST_P(QueueOrderPropertyTest, MinVestingTimeMatchesModel) {
  const std::vector<Model> vested = Sorted();
  for (int k : {1, 3}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    fdb::Transaction txn = db_.CreateTransaction();
    QueueZone zone = Zone(&txn);
    int64_t expected = model_.front().vesting;
    for (const Model& m : model_) expected = std::min(expected, m.vesting);
    Result<std::optional<int64_t>> before = zone.MinVestingTime();
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(*before, std::optional<int64_t>(expected));

    // The dequeued items now vest when their lease ends; MinVestingTime in
    // the same transaction must see that through read-your-writes.
    Result<std::vector<LeasedItem>> leased = zone.Dequeue(k, kLeaseMillis);
    ASSERT_TRUE(leased.ok());
    const std::vector<std::string> taken = Prefix(vested, k);
    const std::set<std::string> taken_set(taken.begin(), taken.end());
    expected = std::numeric_limits<int64_t>::max();
    for (const Model& m : model_) {
      expected = std::min(expected, taken_set.count(m.id) > 0
                                        ? now_ + kLeaseMillis
                                        : m.vesting);
    }
    Result<std::optional<int64_t>> after = zone.MinVestingTime();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, std::optional<int64_t>(expected));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueOrderPropertyTest,
    ::testing::Values(SweepCase{1, 20, 1, 100}, SweepCase{2, 20, 3, 100},
                      SweepCase{3, 50, 5, 1000}, SweepCase{4, 50, 1, 1000},
                      SweepCase{5, 100, 10, 500}, SweepCase{6, 100, 2, 2000},
                      SweepCase{7, 5, 5, 10}, SweepCase{8, 200, 4, 300}));

}  // namespace
}  // namespace quick::ck
