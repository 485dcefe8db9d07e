#include "fdb/transaction.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/backoff.h"
#include "common/random.h"
#include "fdb/database.h"
#include "fdb/versioned_store.h"

namespace quick::fdb {

Transaction::Transaction(Database* db, TransactionOptions options)
    : db_(db),
      options_(options),
      start_millis_(db->clock()->NowMillis()) {}

Status Transaction::CheckUsable() {
  if (committed_) {
    return Status::FailedPrecondition("transaction already committed");
  }
  // A submitted request took the write buffer and the conflict lists with
  // it: a read could not see this transaction's own writes, and a second
  // commit would resend nothing.
  if (submitted_) {
    return Status::FailedPrecondition(
        "transaction already submitted; Reset it before reusing it");
  }
  if (db_->clock()->NowMillis() - start_millis_ >
      db_->options().transaction_timeout_millis) {
    return Status::TransactionTooOld("transaction exceeded its lifetime");
  }
  return Status::OK();
}

Result<Version> Transaction::EnsureReadVersion() {
  if (read_version_ == kInvalidVersion) {
    QUICK_ASSIGN_OR_RETURN(read_version_, db_->AcquireReadVersion(options_));
  }
  return read_version_;
}

Result<Version> Transaction::GetReadVersion() {
  QUICK_RETURN_IF_ERROR(CheckUsable());
  return EnsureReadVersion();
}

Transaction::LocalView Transaction::ClassifyLocal(
    const std::string& key, const WriteEntry** entry) const {
  auto it = writes_.find(key);
  if (it != writes_.end()) {
    *entry = &it->second;
    switch (it->second.kind) {
      case WriteEntry::Kind::kSet:
        return LocalView::kSet;
      case WriteEntry::Kind::kClear:
        return LocalView::kCleared;
      case WriteEntry::Kind::kAtomicChain:
        return LocalView::kAtomic;
    }
  }
  *entry = nullptr;
  if (CoveredByClearedRange(key)) return LocalView::kCleared;
  return LocalView::kUnknown;
}

bool Transaction::CoveredByClearedRange(std::string_view key) const {
  for (const KeyRange& r : cleared_ranges_) {
    if (r.Contains(key)) return true;
  }
  return false;
}

Result<std::optional<std::string>> Transaction::Get(const std::string& key,
                                                    bool snapshot) {
  QUICK_RETURN_IF_ERROR(CheckUsable());
  const WriteEntry* entry = nullptr;
  switch (ClassifyLocal(key, &entry)) {
    case LocalView::kSet:
      // Value fully determined locally: no storage read, no read conflict.
      return std::optional<std::string>(entry->set_value);
    case LocalView::kCleared:
      return std::optional<std::string>(std::nullopt);
    case LocalView::kAtomic: {
      // Reading a key this transaction atomically mutated turns the op into
      // a read-modify-write: the base comes from storage and a read
      // conflict is added (matching FoundationDB's RYW semantics).
      std::optional<std::string> base;
      if (!entry->base_cleared) {
        QUICK_ASSIGN_OR_RETURN(Version rv, EnsureReadVersion());
        QUICK_ASSIGN_OR_RETURN(base, db_->ReadAt(key, rv));
      }
      if (!snapshot) AddReadConflictKey(key);
      std::optional<std::string> value = std::move(base);
      for (const auto& [op, operand] : entry->atomics) {
        value = ApplyAtomicOp(op, value, operand);
      }
      return value;
    }
    case LocalView::kUnknown:
      break;
  }
  QUICK_ASSIGN_OR_RETURN(Version rv, EnsureReadVersion());
  QUICK_ASSIGN_OR_RETURN(std::optional<std::string> value,
                         db_->ReadAt(key, rv));
  if (!snapshot) AddReadConflictKey(key);
  return value;
}

Status Transaction::ScanRange(const KeyRange& range,
                              const RangeOptions& options, bool snapshot,
                              const RangeSink& sink) {
  QUICK_RETURN_IF_ERROR(CheckUsable());
  QUICK_ASSIGN_OR_RETURN(Version rv, EnsureReadVersion());

  // Every merged pair goes through `emit`, which enforces the limit and
  // remembers where the scan stopped: the read conflict only covers the
  // keys the scan actually read.
  int emitted = 0;
  std::optional<std::string> stopped_at;
  auto emit = [&](std::string_view key, std::string_view value) {
    ++emitted;
    if (!sink(key, value) || (options.limit > 0 && emitted >= options.limit)) {
      stopped_at.emplace(key);
      return false;
    }
    return true;
  };

  // Determine whether the write buffer overlaps the range; if not, storage
  // streams straight into the sink.
  auto first_write = writes_.lower_bound(range.begin);
  bool writes_overlap =
      first_write != writes_.end() && first_write->first < range.end;
  bool clears_overlap = false;
  for (const KeyRange& r : cleared_ranges_) {
    if (r.Intersects(range)) {
      clears_overlap = true;
      break;
    }
  }

  Status scan_status;
  if (!writes_overlap && !clears_overlap) {
    scan_status = db_->ScanRangeAt(range, rv, options, emit);
  } else {
    // One-pass ordered merge of the storage stream with the write buffer;
    // the scan stops as soon as `emit` does. The storage limit cannot be
    // pushed down (buffered clears may drop stored keys).
    // Emits the merged view of one write-buffer entry; `stored` is the
    // storage value at the same key when the merge aligned one.
    auto apply_entry = [&](const std::string& key, const WriteEntry& e,
                           std::optional<std::string_view> stored) {
      switch (e.kind) {
        case WriteEntry::Kind::kSet:
          return emit(key, e.set_value);
        case WriteEntry::Kind::kClear:
          return true;
        case WriteEntry::Kind::kAtomicChain: {
          std::optional<std::string> v;
          if (!e.base_cleared && stored.has_value()) v.emplace(*stored);
          for (const auto& [op, operand] : e.atomics) {
            v = ApplyAtomicOp(op, v, operand);
          }
          return !v.has_value() || emit(key, *v);
        }
      }
      return true;
    };
    // Storage value of `key` as the merge sees it (nullopt when a buffered
    // range clear hides it).
    auto visible = [&](std::string_view key, std::string_view v) {
      return CoveredByClearedRange(key)
                 ? std::nullopt
                 : std::optional<std::string_view>(v);
    };

    RangeOptions scan_opts;
    scan_opts.reverse = options.reverse;
    if (!options.reverse) {
      auto wit = first_write;
      const auto wend = writes_.end();
      auto flush_before = [&](const std::string_view* bound) {
        while (wit != wend && wit->first < range.end &&
               (bound == nullptr || wit->first < *bound)) {
          const auto& [key, entry] = *wit++;
          if (!apply_entry(key, entry, std::nullopt)) return false;
        }
        return true;
      };
      scan_status = db_->ScanRangeAt(
          range, rv, scan_opts, [&](std::string_view k, std::string_view v) {
            if (!flush_before(&k)) return false;
            if (wit != wend && wit->first == k) {
              const auto& [key, entry] = *wit++;
              return apply_entry(key, entry, visible(k, v));
            }
            return !visible(k, v).has_value() || emit(k, v);
          });
      if (scan_status.ok() && !stopped_at.has_value()) flush_before(nullptr);
    } else {
      auto wit = std::make_reverse_iterator(writes_.lower_bound(range.end));
      const auto wend = writes_.rend();
      auto in_range = [&] { return wit != wend && wit->first >= range.begin; };
      auto flush_after = [&](const std::string_view* bound) {
        while (in_range() && (bound == nullptr || wit->first > *bound)) {
          const auto& [key, entry] = *wit++;
          if (!apply_entry(key, entry, std::nullopt)) return false;
        }
        return true;
      };
      scan_status = db_->ScanRangeAt(
          range, rv, scan_opts, [&](std::string_view k, std::string_view v) {
            if (!flush_after(&k)) return false;
            if (in_range() && wit->first == k) {
              const auto& [key, entry] = *wit++;
              return apply_entry(key, entry, visible(k, v));
            }
            return !visible(k, v).has_value() || emit(k, v);
          });
      if (scan_status.ok() && !stopped_at.has_value()) flush_after(nullptr);
    }
  }
  QUICK_RETURN_IF_ERROR(scan_status);

  if (!snapshot) {
    // As in FoundationDB, a scan that a limit or the sink ended early
    // depends on no key past the last one it read.
    KeyRange read = range;
    if (stopped_at.has_value()) {
      if (options.reverse) {
        read.begin = *std::move(stopped_at);
      } else {
        read.end = KeyAfter(*stopped_at);
      }
    }
    AddReadConflictRange(read);
  }
  return Status::OK();
}

Result<std::vector<KeyValue>> Transaction::GetRange(const KeyRange& range,
                                                    const RangeOptions& options,
                                                    bool snapshot) {
  std::vector<KeyValue> out;
  QUICK_RETURN_IF_ERROR(ScanRange(
      range, options, snapshot, [&out](std::string_view k, std::string_view v) {
        out.push_back({std::string(k), std::string(v)});
        return true;
      }));
  return out;
}

Result<std::optional<std::string>> Transaction::GetKey(
    const KeySelector& selector, bool snapshot) {
  QUICK_RETURN_IF_ERROR(CheckUsable());
  // Resolution via a bounded scan around the anchor. `offset` semantics:
  // with the resolved base being the last key <= anchor (or < anchor when
  // !or_equal), offset N steps N keys forward in key order.
  // Implementation strategy: enumerate keys on the relevant side and
  // index into them; selectors in this codebase use offsets 0 and 1, and
  // small positive offsets are supported.
  if (selector.offset >= 1) {
    // Keys starting at (anchor, ...] / [anchor, ...) depending on or_equal.
    KeyRange range;
    range.begin =
        selector.or_equal ? KeyAfter(selector.key) : selector.key;
    range.end = KeyRange::All().end;
    RangeOptions opts;
    opts.limit = selector.offset;
    QUICK_ASSIGN_OR_RETURN(std::vector<KeyValue> kvs,
                           GetRange(range, opts, snapshot));
    if (static_cast<int>(kvs.size()) < selector.offset) {
      return std::optional<std::string>(std::nullopt);
    }
    return std::optional<std::string>(kvs[selector.offset - 1].key);
  }
  // offset <= 0: walk backwards from the anchor.
  KeyRange range;
  range.begin = KeyRange::All().begin;
  range.end = selector.or_equal ? KeyAfter(selector.key) : selector.key;
  RangeOptions opts;
  opts.limit = 1 - selector.offset;
  opts.reverse = true;
  QUICK_ASSIGN_OR_RETURN(std::vector<KeyValue> kvs,
                         GetRange(range, opts, snapshot));
  const int need = 1 - selector.offset;  // 1 for offset 0, 2 for -1, ...
  if (static_cast<int>(kvs.size()) < need) {
    return std::optional<std::string>(std::nullopt);
  }
  return std::optional<std::string>(kvs[need - 1].key);
}

Result<std::vector<KeyValue>> Transaction::GetRangeSelector(
    const KeySelector& begin, const KeySelector& end,
    const RangeOptions& options, bool snapshot) {
  QUICK_ASSIGN_OR_RETURN(std::optional<std::string> begin_key,
                         GetKey(begin, snapshot));
  QUICK_ASSIGN_OR_RETURN(std::optional<std::string> end_key,
                         GetKey(end, snapshot));
  KeyRange range;
  range.begin = begin_key.value_or(KeyRange::All().end);
  range.end = end_key.value_or(KeyRange::All().end);
  if (range.empty()) return std::vector<KeyValue>{};
  return GetRange(range, options, snapshot);
}

void Transaction::Set(const std::string& key, const std::string& value) {
  WriteEntry& e = writes_[key];
  e = WriteEntry{WriteEntry::Kind::kSet, value, {}, false};
  AddWriteConflictKey(key);
  approx_size_ += static_cast<int64_t>(key.size() + value.size());
}

void Transaction::Clear(const std::string& key) {
  WriteEntry& e = writes_[key];
  e = WriteEntry{WriteEntry::Kind::kClear, {}, {}, false};
  AddWriteConflictKey(key);
  approx_size_ += static_cast<int64_t>(key.size());
}

void Transaction::ClearRange(const KeyRange& range) {
  if (range.empty()) return;
  cleared_ranges_.push_back(range);
  for (auto it = writes_.lower_bound(range.begin);
       it != writes_.end() && it->first < range.end;) {
    it->second = WriteEntry{WriteEntry::Kind::kClear, {}, {}, false};
    ++it;
  }
  AddWriteConflictRange(range);
  approx_size_ += static_cast<int64_t>(range.begin.size() + range.end.size());
}

void Transaction::Atomic(AtomicOp op, const std::string& key,
                         const std::string& operand) {
  auto it = writes_.find(key);
  if (it == writes_.end()) {
    WriteEntry e;
    e.kind = WriteEntry::Kind::kAtomicChain;
    e.base_cleared = CoveredByClearedRange(key);
    e.atomics.emplace_back(op, operand);
    writes_.emplace(key, std::move(e));
  } else {
    WriteEntry& e = it->second;
    switch (e.kind) {
      case WriteEntry::Kind::kSet:
        // Base fully known: fold the op into the buffered value.
        e.set_value = ApplyAtomicOp(op, e.set_value, operand);
        break;
      case WriteEntry::Kind::kClear:
        e.kind = WriteEntry::Kind::kAtomicChain;
        e.base_cleared = true;
        e.atomics.clear();
        e.atomics.emplace_back(op, operand);
        break;
      case WriteEntry::Kind::kAtomicChain:
        e.atomics.emplace_back(op, operand);
        break;
    }
  }
  AddWriteConflictKey(key);
  approx_size_ += static_cast<int64_t>(key.size() + operand.size());
}

void Transaction::SetVersionstampedKey(const std::string& prefix,
                                        const std::string& suffix,
                                        const std::string& value) {
  Mutation m;
  m.type = Mutation::Type::kSetVersionstampedKey;
  m.key = prefix;
  m.end_key = suffix;
  m.value = value;
  versionstamped_.push_back(std::move(m));
  // The final key is unknown until commit; conflict on the whole prefix.
  AddWriteConflictRange(KeyRange::Prefix(prefix));
  approx_size_ += static_cast<int64_t>(prefix.size() + suffix.size() +
                                       value.size() + 10);
}

void Transaction::SetVersionstampedValue(const std::string& key,
                                         const std::string& value_prefix) {
  Mutation m;
  m.type = Mutation::Type::kSetVersionstampedValue;
  m.key = key;
  m.value = value_prefix;
  versionstamped_.push_back(std::move(m));
  AddWriteConflictKey(key);
  approx_size_ += static_cast<int64_t>(key.size() + value_prefix.size() + 10);
}

Result<std::string> Transaction::GetVersionstamp() const {
  if (!committed_ || committed_version_ == kInvalidVersion) {
    return Status::FailedPrecondition(
        "versionstamp only available after a successful data commit");
  }
  return VersionstampFor(committed_version_, committed_batch_order_);
}

void Transaction::AddReadConflictRange(const KeyRange& range) {
  if (!range.empty()) read_conflicts_.push_back(range);
}

void Transaction::AddReadConflictKey(const std::string& key) {
  read_conflicts_.push_back(KeyRange::Single(key));
}

void Transaction::AddWriteConflictRange(const KeyRange& range) {
  if (!range.empty()) write_conflicts_.push_back(range);
}

void Transaction::AddWriteConflictKey(const std::string& key) {
  write_conflicts_.push_back(KeyRange::Single(key));
}

Result<bool> Transaction::BuildCommitRequest(CommitRequest* out) {
  QUICK_RETURN_IF_ERROR(CheckUsable());

  // A transaction with nothing to write and nothing declared is a no-op
  // commit, as in FoundationDB: reads-only commits succeed locally.
  if (writes_.empty() && cleared_ranges_.empty() && write_conflicts_.empty() &&
      versionstamped_.empty()) {
    committed_ = true;
    committed_version_ = read_version_;
    return false;
  }

  const int64_t limit = options_.size_limit_bytes > 0
                            ? options_.size_limit_bytes
                            : db_->options().max_transaction_bytes;
  if (approx_size_ > limit) {
    return Status::TransactionTooLarge();
  }

  // Conflict checking needs a read version whenever read conflicts exist.
  if (!read_conflicts_.empty() && read_version_ == kInvalidVersion) {
    QUICK_RETURN_IF_ERROR(EnsureReadVersion().status());
  }

  // Everything buffered moves into the request: each conflict key, and
  // each mutation's key and value, is allocated once, here in the client,
  // and moved on towards the resolver and the store.
  CommitRequest& request = *out;
  request.read_version = read_version_;
  request.read_conflicts = std::move(read_conflicts_);
  request.write_conflicts = std::move(write_conflicts_);
  submitted_ = true;

  size_t mutations = cleared_ranges_.size() + versionstamped_.size();
  for (const auto& [key, e] : writes_) {
    mutations +=
        e.kind == WriteEntry::Kind::kAtomicChain ? e.atomics.size() : 1;
  }
  request.mutations.reserve(mutations);
  // Range clears first so per-key mutations within the same commit version
  // supersede them.
  for (KeyRange& r : cleared_ranges_) {
    Mutation m;
    m.type = Mutation::Type::kClearRange;
    m.key = std::move(r.begin);
    m.end_key = std::move(r.end);
    request.mutations.push_back(std::move(m));
  }
  for (Mutation& m : versionstamped_) {
    request.mutations.push_back(std::move(m));
  }
  while (!writes_.empty()) {
    auto node = writes_.extract(writes_.begin());
    WriteEntry& e = node.mapped();
    switch (e.kind) {
      case WriteEntry::Kind::kSet: {
        Mutation m;
        m.type = Mutation::Type::kSet;
        m.key = std::move(node.key());
        m.value = std::move(e.set_value);
        request.mutations.push_back(std::move(m));
        break;
      }
      case WriteEntry::Kind::kClear: {
        Mutation m;
        m.type = Mutation::Type::kClear;
        m.key = std::move(node.key());
        request.mutations.push_back(std::move(m));
        break;
      }
      case WriteEntry::Kind::kAtomicChain: {
        for (size_t i = 0; i < e.atomics.size(); ++i) {
          Mutation m;
          m.type = Mutation::Type::kAtomic;
          if (i + 1 < e.atomics.size()) {
            m.key = node.key();
          } else {
            m.key = std::move(node.key());  // the chain's last op takes it
          }
          m.op = e.atomics[i].first;
          m.value = std::move(e.atomics[i].second);
          m.base_cleared = e.base_cleared && i == 0;
          request.mutations.push_back(std::move(m));
        }
        break;
      }
    }
  }

  return true;
}

void Transaction::ApplyCommitOutcome(const CommitOutcome& outcome) {
  committed_ = true;
  committed_version_ = outcome.version;
  committed_batch_order_ = outcome.batch_order;
}

Status Transaction::Commit() {
  CommitRequest request;
  QUICK_ASSIGN_OR_RETURN(const bool submit, BuildCommitRequest(&request));
  if (!submit) return Status::OK();  // read-only no-op
  Result<CommitOutcome> result = db_->CommitAt(std::move(request));
  if (!result.ok()) return result.status();
  ApplyCommitOutcome(*result);
  return Status::OK();
}

Future<Status> Transaction::CommitAsync() {
  Promise<Status> promise;
  Future<Status> future = promise.GetFuture();
  CommitRequest request;
  Result<bool> submit = BuildCommitRequest(&request);
  if (!submit.ok()) {
    promise.Set(submit.status());
    return future;
  }
  if (!*submit) {
    promise.Set(Status::OK());  // read-only no-op
    return future;
  }
  db_->CommitAsync(std::move(request),
                   [this, promise](const Result<CommitOutcome>& r) mutable {
                     if (!r.ok()) {
                       promise.Set(r.status());
                       return;
                     }
                     ApplyCommitOutcome(*r);
                     promise.Set(Status::OK());
                   });
  return future;
}

std::optional<int64_t> Transaction::PrepareRetry(const Status& error) {
  if (!error.retryable()) return std::nullopt;
  static const ExponentialBackoff kBackoff(kTxnBackoffInitialMillis,
                                           kTxnBackoffMaxMillis);
  const int64_t delay = kBackoff.JitteredDelayForAttempt(
      retry_attempt_, &Random::ThreadLocal());
  ++retry_attempt_;
  Reset();
  return delay;
}

Status Transaction::OnError(const Status& error) {
  std::optional<int64_t> delay = PrepareRetry(error);
  if (!delay.has_value()) return error;
  db_->clock()->SleepMillis(*delay);
  Reset();  // restart the lifetime clock after the backoff sleep
  return Status::OK();
}

void Transaction::Reset() {
  writes_.clear();
  versionstamped_.clear();
  cleared_ranges_.clear();
  read_conflicts_.clear();
  write_conflicts_.clear();
  approx_size_ = 0;
  read_version_ = kInvalidVersion;
  committed_version_ = kInvalidVersion;
  committed_batch_order_ = 0;
  committed_ = false;
  submitted_ = false;
  start_millis_ = db_->clock()->NowMillis();
}

}  // namespace quick::fdb
