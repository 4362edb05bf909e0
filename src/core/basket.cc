#include "core/basket.h"

#include <cstring>

#include "storage/chunk.h"
#include "storage/pager.h"
#include "util/logging.h"

namespace datacell::core {

Basket::Basket(std::string name, const Schema& schema, bool add_arrival_ts)
    : name_(std::move(name)), schema_(schema), data_() {
  if (add_arrival_ts && schema_.FindField(kArrivalColumn) < 0) {
    Status st = schema_.AddField({kArrivalColumn, DataType::kTimestamp});
    DC_CHECK(st.ok());
    has_arrival_ = true;
  } else {
    has_arrival_ = schema_.FindField(kArrivalColumn) >= 0;
  }
  user_schema_ = Schema(std::vector<Field>(
      schema_.fields().begin(),
      schema_.fields().end() - (has_arrival_ ? 1 : 0)));
  data_ = Table(schema_);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const std::string prefix = "basket." + name_ + ".";
  m_appended_ = reg.GetCounter(prefix + "appended");
  m_dropped_ = reg.GetCounter(prefix + "dropped");
  m_consumed_ = reg.GetCounter(prefix + "consumed");
  m_credit_stalls_ = reg.GetCounter(prefix + "credit_stalls");
  m_rows_ = reg.GetGauge(prefix + "rows");
  m_spilled_rows_ = reg.GetCounter("storage.spilled_rows");
  m_spilled_pages_ = reg.GetCounter("storage.spilled_pages");
  m_faulted_rows_ = reg.GetCounter("storage.faulted_rows");
}

void Basket::SetCapacity(size_t high_watermark, size_t low_watermark) {
  if (high_watermark == 0) {
    capacity_.store(0, std::memory_order_relaxed);
    low_watermark_.store(0, std::memory_order_relaxed);
    return;
  }
  if (low_watermark == 0) low_watermark = high_watermark / 2;
  low_watermark = std::min(low_watermark, high_watermark);
  capacity_.store(high_watermark, std::memory_order_relaxed);
  low_watermark_.store(low_watermark, std::memory_order_relaxed);
}

size_t Basket::CreditRemaining() const {
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return SIZE_MAX;
  // Credit is bounded by *resident* rows: the capacity is a memory bound,
  // and evicting the cold prefix to the spill tier is what replenishes
  // producer credit. Without a spill pool resident == total, so this is
  // exactly the old size()-based accounting.
  const size_t n = resident_rows_.load(std::memory_order_acquire);
  return n >= cap ? 0 : cap - n;
}

bool Basket::Drained() const {
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return true;
  return resident_rows_.load(std::memory_order_acquire) <=
         low_watermark_.load(std::memory_order_relaxed);
}

void Basket::AddConstraint(ExprPtr predicate) {
  RecursiveMutexLock lock(&mu_);
  constraints_.push_back(std::move(predicate));
}

size_t Basket::AddListener(Listener listener) {
  RecursiveMutexLock lock(&mu_);
  const size_t id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Basket::RemoveListener(size_t id) {
  RecursiveMutexLock lock(&mu_);
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->first == id) {
      listeners_.erase(it);
      return;
    }
  }
}

void Basket::Touch() {
  const size_t resident = data_.num_rows();
  const size_t rows = resident + spilled_count_;
  num_rows_.store(rows, std::memory_order_release);
  resident_rows_.store(resident, std::memory_order_release);
  spilled_rows_now_.store(spilled_count_, std::memory_order_release);
  version_.fetch_add(1, std::memory_order_acq_rel);
  if (obs::MetricsRegistry::enabled()) {
    m_rows_->Set(static_cast<int64_t>(rows));
  }
  for (const auto& [id, fn] : listeners_) fn();
}

void Basket::UpdatePeak() {
  // Caller holds mu_, so appends are serialized and a plain max-store is
  // race-free against concurrent stats() readers.
  const uint64_t rows = data_.num_rows();
  if (rows > peak_rows_.load(std::memory_order_relaxed)) {
    peak_rows_.store(rows, std::memory_order_relaxed);
  }
}

Result<SelVector> Basket::ApplyConstraints(const Table& tuples) const {
  SelVector sel(tuples.num_rows());
  for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
  EvalContext ctx;
  for (const ExprPtr& c : constraints_) {
    ASSIGN_OR_RETURN(sel, EvalPredicateOn(tuples, *c, sel, ctx));
  }
  return sel;
}

Result<size_t> Basket::Append(const Table& tuples, Micros now) {
  if (!enabled_.load()) {
    CountDropped(tuples.num_rows());
    return size_t{0};
  }
  // Widen to the full schema by stamping the arrival column. Arity checks
  // go through the immutable schema_, not data_, which another thread may
  // be consuming (data_ is only touched under mu_).
  if (!has_arrival_) return AppendAligned(tuples, now);
  if (tuples.num_columns() + 1 != schema_.num_fields()) {
    return Status::TypeMismatch("basket '" + name_ + "' expects " +
                                std::to_string(schema_.num_fields() - 1) +
                                " user columns, got " +
                                std::to_string(tuples.num_columns()));
  }
  // The user columns share the caller's buffers (AppendColumn into an
  // empty column adopts them), so widening copies nothing but the stamp.
  Table widened(schema_);
  for (size_t c = 0; c < tuples.num_columns(); ++c) {
    RETURN_NOT_OK(widened.column(c).AppendColumn(tuples.column(c)));
  }
  Column& stamp = widened.column(widened.num_columns() - 1);
  stamp.Reserve(tuples.num_rows());
  stamp.ints().assign(tuples.num_rows(), now);
  return AppendAligned(widened, now);
}

Result<size_t> Basket::AppendAligned(const Table& tuples, Micros now) {
  (void)now;
  if (!enabled_.load()) {
    CountDropped(tuples.num_rows());
    return size_t{0};
  }
  if (tuples.num_columns() != schema_.num_fields()) {
    return Status::TypeMismatch("aligned append arity mismatch on basket '" +
                                name_ + "'");
  }
  RecursiveMutexLock lock(&mu_);
  if (constraints_.empty()) {
    RETURN_NOT_OK(data_.AppendTable(tuples));
    CountAppended(tuples.num_rows());
    UpdatePeak();  // before any spill: the peak tracks arrival pressure
    RETURN_NOT_OK(MaybeSpill());
    if (tuples.num_rows() > 0) Touch();
    return tuples.num_rows();
  }
  ASSIGN_OR_RETURN(SelVector keep, ApplyConstraints(tuples));
  RETURN_NOT_OK(data_.AppendTableRows(tuples, keep));
  CountAppended(keep.size());
  CountDropped(tuples.num_rows() - keep.size());
  UpdatePeak();
  RETURN_NOT_OK(MaybeSpill());
  if (!keep.empty()) Touch();
  return keep.size();
}

Status Basket::AppendRow(const Row& row, Micros now) {
  Table t(user_schema_);
  RETURN_NOT_OK(t.AppendRow(row));
  ASSIGN_OR_RETURN(size_t n, Append(t, now));
  (void)n;
  return Status::OK();
}

Table Basket::Peek() const {
  RecursiveMutexLock lock(&mu_);
  EnsureResident();
  return data_;
}

Table Basket::PeekRows(const SelVector& sel) const {
  RecursiveMutexLock lock(&mu_);
  EnsureResident();
  return data_.Take(sel);
}

Table Basket::TakeAll() {
  RecursiveMutexLock lock(&mu_);
  EnsureResident();
  // The caller gets the columns' buffers; the basket keeps its columns,
  // now empty and owning no buffer, so the swap allocates nothing beyond
  // the returned table's column list.
  Table out = data_;
  data_.Clear();
  CountConsumed(out.num_rows());
  if (out.num_rows() > 0) Touch();
  return out;
}

Result<Table> Basket::TakeRows(const SelVector& sorted_sel) {
  RecursiveMutexLock lock(&mu_);
  RETURN_NOT_OK(FaultAll());
  Table out = data_.Take(sorted_sel);
  RETURN_NOT_OK(data_.EraseRows(sorted_sel));
  CountConsumed(sorted_sel.size());
  if (!sorted_sel.empty()) Touch();
  return out;
}

Status Basket::EraseRows(const SelVector& sorted_sel) {
  RecursiveMutexLock lock(&mu_);
  RETURN_NOT_OK(FaultAll());
  RETURN_NOT_OK(data_.EraseRows(sorted_sel));
  CountConsumed(sorted_sel.size());
  if (!sorted_sel.empty()) Touch();
  return Status::OK();
}

Status Basket::ErasePrefix(size_t n) {
  RecursiveMutexLock lock(&mu_);
  n = std::min(n, data_.num_rows() + spilled_count_);
  if (n == 0) return Status::OK();
  // The prefix is the cold end: whole spilled segments covered by the
  // erase are consumed by freeing their pages, never reading them back —
  // the common shape when a consumer drains an overloaded stream.
  size_t remaining = n;
  storage::BufferPool* pool = spill_pool_.load(std::memory_order_acquire);
  while (!spilled_.empty() && remaining >= spilled_.front().rows) {
    SpillSegment& seg = spilled_.front();
    for (uint64_t id : seg.pages) RETURN_NOT_OK(pool->DeletePage(id));
    remaining -= seg.rows;
    spilled_count_ -= seg.rows;
    spilled_.pop_front();
  }
  // An erase ending inside the front segment rewrites just that segment
  // without its first `remaining` rows. Faulting the whole basket back in
  // here would be correct but catastrophic under a slow consumer: every
  // small drain would re-residentize megabytes that the very next append
  // re-spills (spill thrash). The rewrite touches one segment's pages and
  // leaves the residency split untouched.
  if (remaining > 0 && !spilled_.empty()) {
    SpillSegment& seg = spilled_.front();
    std::string chunk(seg.bytes, '\0');
    size_t off = 0;
    for (uint64_t id : seg.pages) {
      ASSIGN_OR_RETURN(char* frame, pool->FetchPage(id));
      std::memcpy(chunk.data() + off, frame,
                  std::min(storage::kPageSize, seg.bytes - off));
      pool->Unpin(id, /*dirty=*/false);
      off += storage::kPageSize;
    }
    ASSIGN_OR_RETURN(Table part, storage::DeserializeChunk(
                                     schema_, chunk.data(), chunk.size()));
    RETURN_NOT_OK(part.ErasePrefix(remaining));
    std::string rewritten;
    RETURN_NOT_OK(storage::SerializeChunk(part, &rewritten));
    SpillSegment fresh;
    fresh.rows = part.num_rows();
    fresh.bytes = rewritten.size();
    bool wrote = true;
    for (size_t w = 0; w < rewritten.size(); w += storage::kPageSize) {
      uint64_t id = storage::kInvalidPageId;
      Result<char*> frame = pool->NewPage(&id);
      if (!frame.ok()) {
        for (uint64_t allocated : fresh.pages) {
          // Rollback on a full pool: a failed delete only leaks a spill
          // page until the pager is rebuilt, never corrupts data.
          pool->DeletePage(allocated).IgnoreError();
        }
        wrote = false;
        break;
      }
      std::memcpy(*frame, rewritten.data() + w,
                  std::min(storage::kPageSize, rewritten.size() - w));
      pool->Unpin(id, /*dirty=*/true);
      fresh.pages.push_back(id);
    }
    if (wrote) {
      for (uint64_t id : seg.pages) RETURN_NOT_OK(pool->DeletePage(id));
      spilled_count_ -= remaining;
      seg = std::move(fresh);
      remaining = 0;
    } else {
      // Pool exhausted mid-rewrite (old pages still intact): fall back to
      // the resident path — correctness never depends on the fast path.
      RETURN_NOT_OK(FaultAll());
    }
  }
  if (remaining > 0) RETURN_NOT_OK(data_.ErasePrefix(remaining));
  CountConsumed(n);
  Touch();
  return Status::OK();
}

void Basket::Clear() {
  RecursiveMutexLock lock(&mu_);
  const size_t n = data_.num_rows() + spilled_count_;
  if (!spilled_.empty()) {
    storage::BufferPool* pool = spill_pool_.load(std::memory_order_acquire);
    for (const SpillSegment& seg : spilled_) {
      for (uint64_t id : seg.pages) {
        Status st = pool->DeletePage(id);
        if (!st.ok()) DC_LOG(Warn) << "spill page free failed: " << st.message();
      }
    }
    spilled_.clear();
    spilled_count_ = 0;
  }
  CountConsumed(n);
  data_.Clear();
  if (n > 0) Touch();
}

Status Basket::MaybeSpill() {
  storage::BufferPool* pool = spill_pool_.load(std::memory_order_acquire);
  if (pool == nullptr || !storage::SpillEnabled()) return Status::OK();
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  const size_t resident = data_.num_rows();
  // Trigger at the watermark, not past it: a credit-respecting producer
  // (the gateway) never appends beyond `cap` resident rows, so a
  // strictly-greater test would leave the valve permanently shut for
  // exactly the producers it exists to unblock.
  if (cap == 0 || resident < cap) return Status::OK();
  const size_t keep = low_watermark_.load(std::memory_order_relaxed);
  const size_t n = resident - keep;
  SelVector prefix(n);
  for (size_t i = 0; i < n; ++i) prefix[i] = static_cast<uint32_t>(i);
  std::string chunk;
  RETURN_NOT_OK(storage::SerializeChunk(data_.Take(prefix), &chunk));
  SpillSegment seg;
  seg.rows = n;
  seg.bytes = chunk.size();
  for (size_t off = 0; off < chunk.size(); off += storage::kPageSize) {
    uint64_t id = storage::kInvalidPageId;
    Result<char*> frame = pool->NewPage(&id);
    if (!frame.ok()) {
      // Pool exhausted (every frame pinned): degrade by keeping the rows
      // resident — correctness never depends on an eviction succeeding.
      for (uint64_t allocated : seg.pages) {
        pool->DeletePage(allocated).IgnoreError();  // rollback, see above
      }
      DC_LOG(Warn) << "basket '" << name_
                   << "' spill skipped: " << frame.status().message();
      return Status::OK();
    }
    std::memcpy(*frame, chunk.data() + off,
                std::min(storage::kPageSize, chunk.size() - off));
    pool->Unpin(id, /*dirty=*/true);
    seg.pages.push_back(id);
  }
  RETURN_NOT_OK(data_.ErasePrefix(n));
  spilled_count_ += n;
  spilled_total_.fetch_add(n, std::memory_order_relaxed);
  if (obs::MetricsRegistry::enabled()) {
    m_spilled_rows_->Increment(n);
    m_spilled_pages_->Increment(seg.pages.size());
  }
  spilled_.push_back(std::move(seg));
  return Status::OK();
}

Status Basket::FaultAll() {
  if (spilled_.empty()) return Status::OK();
  storage::BufferPool* pool = spill_pool_.load(std::memory_order_acquire);
  Table combined(schema_);
  std::string chunk;
  for (const SpillSegment& seg : spilled_) {
    chunk.resize(seg.bytes);
    size_t off = 0;
    for (uint64_t id : seg.pages) {
      ASSIGN_OR_RETURN(char* frame, pool->FetchPage(id));
      std::memcpy(chunk.data() + off, frame,
                  std::min(storage::kPageSize, seg.bytes - off));
      pool->Unpin(id, /*dirty=*/false);
      RETURN_NOT_OK(pool->DeletePage(id));
      off += storage::kPageSize;
    }
    ASSIGN_OR_RETURN(Table part, storage::DeserializeChunk(
                                     schema_, chunk.data(), chunk.size()));
    RETURN_NOT_OK(combined.AppendTable(part));
  }
  const size_t faulted = spilled_count_;
  spilled_.clear();
  spilled_count_ = 0;
  faulted_total_.fetch_add(faulted, std::memory_order_relaxed);
  if (obs::MetricsRegistry::enabled()) m_faulted_rows_->Increment(faulted);
  RETURN_NOT_OK(combined.AppendTable(data_));
  data_ = std::move(combined);
  // Same logical contents, different residency: refresh the split mirrors
  // without a version bump (listeners only care about content changes).
  resident_rows_.store(data_.num_rows(), std::memory_order_release);
  spilled_rows_now_.store(0, std::memory_order_release);
  return Status::OK();
}

void Basket::EnsureResident() const {
  Status st = const_cast<Basket*>(this)->FaultAll();
  DC_CHECK(st.ok()) << "basket '" << name_
                    << "' failed to fault spilled rows: " << st.message();
}

Basket::Stats Basket::stats() const {
  Stats s;
  s.appended = appended_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.consumed = consumed_.load(std::memory_order_relaxed);
  s.peak_rows = peak_rows_.load(std::memory_order_relaxed);
  s.credit_stalls = credit_stalls_.load(std::memory_order_relaxed);
  s.spilled = spilled_total_.load(std::memory_order_relaxed);
  s.faulted = faulted_total_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace datacell::core
