// Parameterized conflict matrix: transaction T1 performs one operation,
// transaction T2 performs another and commits first; the table says whether
// T1's commit must then abort. This pins down the optimistic-concurrency
// semantics every layer above relies on.

#include <gtest/gtest.h>

#include <ostream>

#include "fdb/database.h"

namespace quick::fdb {
namespace {

// Seeded keys: "b" and "k1".
enum class Op {
  kStrongRead,      // Get("k1")
  kSnapshotRead,    // Get("k1", snapshot)
  kRangeRead,       // GetRange(["a","c"))
  kWrite,           // Set("k1")
  kWriteOther,      // Set("k2")
  kWriteEdge,       // Set("c") — just outside the range read
  kWriteInRange,    // Set("b")
  kWriteHead,       // Set("a")
  kAtomicAdd,       // Atomic(kAdd, "k1")
  kClearRangeOver,  // ClearRange(["k","l")) covering k1
  kDeclaredRead,    // AddReadConflictKey("k1")
  kDeclaredWrite,   // AddWriteConflictKey("k1")
  // Limited strong reads conflict only up to the last key they read:
  kLimitedRead,          // GetRange(["a","l"), limit 1) reads "b"
  kLimitedReverseRead,   // GetRange(["a","l"), limit 1, reverse) reads "k1"
  kLimitedReadToEnd,     // GetRange(["b","k"), limit 2) runs out at "b"
  kBufferedLimitedRead,  // Set("a5"), then kLimitedRead reads "a5"
  kBufferedLimitedReverseRead,  // Set("k5"), then kLimitedReverseRead
  kSelectorRead,         // GetKey(FirstGreaterOrEqual("a")) finds "b"
  kReverseSelectorRead,  // GetKey(LastLessOrEqual("c")) finds "b"
};

void Apply(Transaction* txn, Op op) {
  switch (op) {
    case Op::kStrongRead:
      ASSERT_TRUE(txn->Get("k1").ok());
      break;
    case Op::kSnapshotRead:
      ASSERT_TRUE(txn->Get("k1", /*snapshot=*/true).ok());
      break;
    case Op::kRangeRead:
      ASSERT_TRUE(txn->GetRange(KeyRange{"a", "c"}).ok());
      break;
    case Op::kWrite:
      txn->Set("k1", "v");
      break;
    case Op::kWriteOther:
      txn->Set("k2", "v");
      break;
    case Op::kWriteEdge:
      txn->Set("c", "v");
      break;
    case Op::kWriteInRange:
      txn->Set("b", "v");
      break;
    case Op::kWriteHead:
      txn->Set("a", "v");
      break;
    case Op::kAtomicAdd:
      txn->Atomic(AtomicOp::kAdd, "k1", EncodeLittleEndian64(1));
      break;
    case Op::kClearRangeOver:
      txn->ClearRange(KeyRange{"k", "l"});
      break;
    case Op::kDeclaredRead:
      ASSERT_TRUE(txn->GetReadVersion().ok());
      txn->AddReadConflictKey("k1");
      break;
    case Op::kDeclaredWrite:
      txn->AddWriteConflictKey("k1");
      break;
    case Op::kBufferedLimitedRead:
      txn->Set("a5", "v");
      [[fallthrough]];
    case Op::kLimitedRead: {
      auto kvs = txn->GetRange(KeyRange{"a", "l"}, RangeOptions{.limit = 1});
      ASSERT_TRUE(kvs.ok() && kvs->size() == 1);
      EXPECT_EQ(kvs->front().key, op == Op::kLimitedRead ? "b" : "a5");
      break;
    }
    case Op::kBufferedLimitedReverseRead:
      txn->Set("k5", "v");
      [[fallthrough]];
    case Op::kLimitedReverseRead: {
      auto kvs = txn->GetRange(KeyRange{"a", "l"},
                               RangeOptions{.limit = 1, .reverse = true});
      ASSERT_TRUE(kvs.ok() && kvs->size() == 1);
      EXPECT_EQ(kvs->front().key, op == Op::kLimitedReverseRead ? "k1" : "k5");
      break;
    }
    case Op::kLimitedReadToEnd: {
      auto kvs = txn->GetRange(KeyRange{"b", "k"}, RangeOptions{.limit = 2});
      ASSERT_TRUE(kvs.ok() && kvs->size() == 1);
      break;
    }
    case Op::kSelectorRead: {
      auto key = txn->GetKey(KeySelector::FirstGreaterOrEqual("a"));
      ASSERT_TRUE(key.ok());
      EXPECT_EQ(*key, std::optional<std::string>("b"));
      break;
    }
    case Op::kReverseSelectorRead: {
      auto key = txn->GetKey(KeySelector::LastLessOrEqual("c"));
      ASSERT_TRUE(key.ok());
      EXPECT_EQ(*key, std::optional<std::string>("b"));
      break;
    }
  }
}

struct MatrixCase {
  const char* name;
  Op t1_op;
  Op t2_op;
  bool t1_must_abort;
};

// gtest prints each parameter into the listing gtest_discover_tests turns
// into ctest names; the default would print the struct's bytes, pointer
// included, so the names would move whenever the binary's layout does.
void PrintTo(const MatrixCase& c, std::ostream* os) { *os << c.name; }

class ConflictMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConflictMatrixTest, CommitOutcomeMatchesTable) {
  const MatrixCase& c = GetParam();
  Database db("matrix");
  // Seed so reads have something to observe.
  {
    Transaction seed = db.CreateTransaction();
    seed.Set("k1", "seed");
    seed.Set("b", "seed");
    ASSERT_TRUE(seed.Commit().ok());
  }

  Transaction t1 = db.CreateTransaction();
  Apply(&t1, c.t1_op);
  // T1 must have something to commit so the resolver actually runs.
  t1.Set("t1_marker", "x");

  Transaction t2 = db.CreateTransaction();
  // Declared-write-only transactions still need their conflicts checked
  // against a read version; touch one for realism.
  ASSERT_TRUE(t2.GetReadVersion().ok());
  Apply(&t2, c.t2_op);
  t2.Set("t2_marker", "y");
  ASSERT_TRUE(t2.Commit().ok()) << c.name;

  const Status st = t1.Commit();
  if (c.t1_must_abort) {
    EXPECT_TRUE(st.IsNotCommitted()) << c.name << ": expected abort, got "
                                     << st;
  } else {
    EXPECT_TRUE(st.ok()) << c.name << ": expected commit, got " << st;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConflictMatrixTest,
    ::testing::Values(
        MatrixCase{"read_vs_write", Op::kStrongRead, Op::kWrite, true},
        MatrixCase{"snapshot_read_vs_write", Op::kSnapshotRead, Op::kWrite,
                   false},
        MatrixCase{"read_vs_write_other_key", Op::kStrongRead, Op::kWriteOther,
                   false},
        MatrixCase{"range_read_vs_write_inside", Op::kRangeRead,
                   Op::kWriteInRange, true},
        MatrixCase{"range_read_vs_write_at_end", Op::kRangeRead, Op::kWriteEdge,
                   false},
        MatrixCase{"atomic_vs_write", Op::kAtomicAdd, Op::kWrite, false},
        MatrixCase{"atomic_vs_atomic", Op::kAtomicAdd, Op::kAtomicAdd, false},
        MatrixCase{"read_vs_atomic", Op::kStrongRead, Op::kAtomicAdd, true},
        MatrixCase{"read_vs_clear_range", Op::kStrongRead, Op::kClearRangeOver,
                   true},
        MatrixCase{"write_vs_write", Op::kWrite, Op::kWrite, false},
        MatrixCase{"declared_read_vs_write", Op::kDeclaredRead, Op::kWrite,
                   true},
        MatrixCase{"read_vs_declared_write", Op::kStrongRead,
                   Op::kDeclaredWrite, true},
        MatrixCase{"snapshot_read_vs_declared_write", Op::kSnapshotRead,
                   Op::kDeclaredWrite, false},
        MatrixCase{"declared_write_vs_write", Op::kDeclaredWrite, Op::kWrite,
                   false},
        MatrixCase{"limited_read_vs_write_past_last", Op::kLimitedRead,
                   Op::kWriteEdge, false},
        MatrixCase{"limited_read_vs_write_at_last", Op::kLimitedRead,
                   Op::kWriteInRange, true},
        MatrixCase{"limited_read_vs_write_before_last", Op::kLimitedRead,
                   Op::kWriteHead, true},
        MatrixCase{"limited_reverse_read_vs_write_past_last",
                   Op::kLimitedReverseRead, Op::kWriteEdge, false},
        MatrixCase{"limited_reverse_read_vs_write_at_last",
                   Op::kLimitedReverseRead, Op::kWrite, true},
        MatrixCase{"limited_reverse_read_vs_write_before_last",
                   Op::kLimitedReverseRead, Op::kWriteOther, true},
        MatrixCase{"limited_read_to_end_vs_write_past_last",
                   Op::kLimitedReadToEnd, Op::kWriteEdge, true},
        MatrixCase{"buffered_limited_read_vs_write_past_last",
                   Op::kBufferedLimitedRead, Op::kWriteInRange, false},
        MatrixCase{"buffered_limited_reverse_read_vs_write_past_last",
                   Op::kBufferedLimitedReverseRead, Op::kWrite, false},
        MatrixCase{"selector_read_vs_write_past_found", Op::kSelectorRead,
                   Op::kWriteEdge, false},
        MatrixCase{"reverse_selector_read_vs_write_past_found",
                   Op::kReverseSelectorRead, Op::kWriteHead, false}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace quick::fdb
