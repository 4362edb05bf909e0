#ifndef DATACELL_CORE_BASKET_H_
#define DATACELL_CORE_BASKET_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "column/table.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace datacell::storage {
class BufferPool;
}  // namespace datacell::storage

namespace datacell::core {

/// Name of the implicit arrival-timestamp column every basket carries
/// (the paper: "for each relational table there exists an extra column, the
/// timestamp column, that ... reflects the time that this tuple entered the
/// system").
inline constexpr const char* kArrivalColumn = "dc_arrival";

/// The key DataCell data structure: a temporary main-memory table holding a
/// portion of a stream (§3.2).
///
/// Differences from a plain Table, per the paper:
///  * Integrity: tuples violating a constraint are silently dropped, acting
///    as a silent filter.
///  * ACID: contents are session-scoped and non-durable; concurrent access
///    is regulated with a lock.
///  * Control: a basket can be disabled, blocking the stream (appends are
///    rejected) until re-enabled.
///  * Consumption: tuples are removed once consumed by all relevant
///    continuous queries; there is no a-priori arrival order requirement.
///
/// All public methods are internally synchronized via a recursive mutex, so
/// multi-step factory sequences can additionally hold a BasketLock across
/// statements (mirroring Algorithm 1's basket.lock/unlock) while still
/// calling the public API. The mutex carries LockRank::kBasket — the
/// outermost rank in the documented hierarchy — and multiple baskets must
/// be locked in ascending address order (Factory::Fire's canonical order),
/// which the debug lock-rank checker enforces.
class Basket {
 public:
  struct Stats {
    uint64_t appended = 0;   // tuples accepted
    uint64_t dropped = 0;    // tuples silently dropped by constraints/disable
    uint64_t consumed = 0;   // tuples removed by queries
    uint64_t peak_rows = 0;  // high-water mark of resident rows
    // Times a credit-respecting producer hit this basket at zero credit
    // (counted by the producer via CountCreditStall).
    uint64_t credit_stalls = 0;
    uint64_t spilled = 0;  // tuples evicted to the spill tier (cumulative)
    uint64_t faulted = 0;  // tuples read back from the spill tier
  };

  /// Watcher invoked after every content mutation (append/take/erase/clear),
  /// with the basket lock held. Listeners must be cheap and must not call
  /// back into any basket — they exist so a scheduler can wake the
  /// transitions watching this place.
  using Listener = std::function<void()>;

  /// Creates a basket over `schema`. When `add_arrival_ts` is set (the
  /// default) a kArrivalColumn timestamp field is appended to the schema
  /// and stamped on every accepted tuple.
  Basket(std::string name, const Schema& schema, bool add_arrival_ts = true);

  Basket(const Basket&) = delete;
  Basket& operator=(const Basket&) = delete;

  const std::string& name() const { return name_; }
  /// Full schema, including the arrival column when present.
  const Schema& schema() const { return schema_; }
  bool has_arrival_column() const { return has_arrival_; }

  /// --- Flow control -------------------------------------------------------
  void Enable() { enabled_.store(true); }
  void Disable() { enabled_.store(false); }
  bool enabled() const { return enabled_.load(); }

  /// --- Capacity / backpressure --------------------------------------------
  /// Disable() keeps the paper's semantics — the stream is blocked and
  /// tuples are *dropped* — while a capacity bound yields *push-back*: a
  /// producer that respects CreditRemaining() (the gateway) stops reading
  /// its channel when the basket reaches `high_watermark` resident rows and
  /// resumes once consumers drain it to `low_watermark` (hysteresis so the
  /// valve does not chatter). Appends themselves are never rejected by the
  /// bound; enforcement lives with cooperating producers.
  ///
  /// `high_watermark` 0 removes the bound; `low_watermark` 0 defaults to
  /// high/2.
  void SetCapacity(size_t high_watermark, size_t low_watermark = 0);
  size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }
  size_t low_watermark() const {
    return low_watermark_.load(std::memory_order_relaxed);
  }
  /// Rows a credit-respecting producer may still append before hitting the
  /// high watermark; SIZE_MAX when unbounded.
  size_t CreditRemaining() const;
  /// True when no bound is set or the basket has drained to (or below) the
  /// low watermark — the point where paused producers resume.
  bool Drained() const;
  /// A cooperating producer (the gateway via Receptor::NoteCreditStall)
  /// records that it paused its channel because this basket was full.
  void CountCreditStall() {
    credit_stalls_.fetch_add(1, std::memory_order_relaxed);
    if (obs::MetricsRegistry::enabled()) m_credit_stalls_->Increment();
  }

  /// --- Spilling -----------------------------------------------------------
  /// Attaches a buffer pool as this basket's spill tier. Once attached (and
  /// while the global SpillEnabled() gate is open), an append that pushes
  /// the resident row count past the high watermark evicts the cold prefix
  /// to disk — down to the low watermark — instead of exhausting producer
  /// credit. Spilled rows still count in size() (factories and CanFire see
  /// the full stream), but CreditRemaining()/Drained() track resident rows
  /// only, so spilling is what frees the producer to keep sending. Rows
  /// fault back transparently on any read or consume. Attach at wiring
  /// time, before tuples flow; the pool must outlive the basket.
  void AttachSpill(storage::BufferPool* pool) {
    spill_pool_.store(pool, std::memory_order_release);
  }
  bool spill_attached() const {
    return spill_pool_.load(std::memory_order_acquire) != nullptr;
  }
  /// Rows currently held in memory / evicted to the spill tier.
  size_t resident_rows() const {
    return resident_rows_.load(std::memory_order_acquire);
  }
  size_t spilled_rows() const {
    return spilled_rows_now_.load(std::memory_order_acquire);
  }

  /// --- Integrity ----------------------------------------------------------
  /// Adds a constraint predicate over the basket schema. Tuples violating
  /// any constraint are silently dropped on append.
  void AddConstraint(ExprPtr predicate);

  /// --- Producer side ------------------------------------------------------
  /// Appends user tuples (without the arrival column), stamping arrival time
  /// `now` and filtering through the constraints. Returns the number of
  /// tuples accepted. If the basket is disabled all tuples are dropped.
  Result<size_t> Append(const Table& tuples, Micros now);
  /// Appends tuples that already carry the full basket schema (used when
  /// forwarding between baskets); constraints still apply.
  Result<size_t> AppendAligned(const Table& tuples, Micros now);
  /// Single-row convenience (boundary paths only).
  Status AppendRow(const Row& row, Micros now);

  /// --- Consumer side ------------------------------------------------------
  /// Lock-free logical row count — resident plus spilled (maintained under
  /// mu_, read anywhere): eligibility checks and firing bodies may probe
  /// any basket's size without touching its lock, so a probe can never
  /// invert the basket lock order.
  size_t size() const { return num_rows_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  /// Zero-copy snapshot of the current contents (kConsumeNone reads): the
  /// returned table shares the basket's column buffers copy-on-write, so
  /// this costs O(#columns) refcount bumps, not O(#tuples). The snapshot
  /// is immutable — later appends/erases/compaction on the basket detach
  /// from the shared storage and never disturb it — which lets factories
  /// and the SQL executor evaluate over it without holding the basket
  /// lock.
  Table Peek() const;
  /// Copy of selected rows without consuming.
  Table PeekRows(const SelVector& sel) const;

  /// Moves the entire contents out (Algorithm 1's select-then-empty).
  Table TakeAll();
  /// Removes and returns exactly the given rows (ascending, unique).
  Result<Table> TakeRows(const SelVector& sorted_sel);
  /// Removes (without returning) the given rows.
  Status EraseRows(const SelVector& sorted_sel);
  /// Removes the first n tuples (shared-baskets unlocker step, FIFO window
  /// slides). O(1): advances the columns' logical head offsets; physical
  /// reclamation is amortized and deferred while snapshots pin the
  /// buffers.
  Status ErasePrefix(size_t n);
  /// Drops everything.
  void Clear();

  /// Direct access to the backing table for operator evaluation. Callers
  /// must hold the basket lock (BasketLock / Lock()) for the whole
  /// sequence that uses the reference — enforced by the analysis. Both
  /// lock entry points fault spilled rows back in first, so under the
  /// documented discipline this is always the full logical contents.
  const Table& contents() const DC_REQUIRES(mu_) { return data_; }

  /// Explicit lock spanning several operations (Algorithm 1's
  /// basket.lock/unlock). Prefer the scoped BasketLock; these exist for
  /// the annotated lock-set acquisition in Factory::Fire.
  void Lock() const DC_ACQUIRE(mu_) {
    mu_.Lock();
    EnsureResident();
  }
  void Unlock() const DC_RELEASE(mu_) { mu_.Unlock(); }

  /// --- Change signalling ---------------------------------------------------
  /// Monotonic counter bumped on every content mutation. A transition
  /// scheduler can compare versions to detect that a place changed between
  /// two observations without holding the basket lock.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Registers a change watcher; returns an id for RemoveListener. See
  /// Listener for the (deliberately tight) contract.
  size_t AddListener(Listener listener);
  void RemoveListener(size_t id);

  Stats stats() const;
  /// The two stats() counters a firing's row accounting reads, without
  /// loading the rest.
  uint64_t appended() const { return appended_.load(std::memory_order_relaxed); }
  uint64_t consumed() const { return consumed_.load(std::memory_order_relaxed); }

 private:
  friend class BasketLock;

  // Filters `tuples` (full schema) through constraints; returns accepted
  // row positions.
  Result<SelVector> ApplyConstraints(const Table& tuples) const
      DC_REQUIRES(mu_);

  // Refreshes the lock-free row counts, bumps the version and notifies
  // listeners.
  void Touch() DC_REQUIRES(mu_);
  // Refreshes peak_rows_ from data_.
  void UpdatePeak() DC_REQUIRES(mu_);

  // One evicted cold-prefix run: a binary chunk (storage/chunk.h) written
  // across whole buffer-pool pages. Segments are strictly older than
  // data_, and older segments precede newer ones, preserving FIFO order.
  struct SpillSegment {
    std::vector<uint64_t> pages;
    size_t rows = 0;
    size_t bytes = 0;  // serialized chunk length
  };

  // Evicts the cold prefix to the spill tier when the resident count
  // exceeds the high watermark (pool attached + gate open only). Runs at
  // the tail of AppendAligned; degrades to keeping rows resident if the
  // pool is exhausted.
  Status MaybeSpill() DC_REQUIRES(mu_);
  // Reads every spilled segment back into data_ (front of the table, in
  // segment order) and frees its pages. No-op when nothing is spilled.
  Status FaultAll() DC_REQUIRES(mu_);
  // FaultAll for paths with no error channel (Peek, Lock). Aborts on
  // spill-file I/O failure: the spill file is this process's own cache,
  // so a read failure there is unrecoverable state corruption.
  void EnsureResident() const DC_REQUIRES(mu_);

  // Per-instance atomics stay the exact source of truth for stats(); the
  // process-global registry mirror (`basket.<name>.*`) aggregates
  // same-named baskets and only advances while MetricsRegistry::enabled()
  // — one relaxed load plus at most one relaxed RMW per call.
  void CountAppended(uint64_t n) {
    appended_.fetch_add(n, std::memory_order_relaxed);
    if (n > 0 && obs::MetricsRegistry::enabled()) m_appended_->Increment(n);
  }
  void CountDropped(uint64_t n) {
    dropped_.fetch_add(n, std::memory_order_relaxed);
    if (n > 0 && obs::MetricsRegistry::enabled()) m_dropped_->Increment(n);
  }
  void CountConsumed(uint64_t n) {
    consumed_.fetch_add(n, std::memory_order_relaxed);
    if (n > 0 && obs::MetricsRegistry::enabled()) m_consumed_->Increment(n);
  }

  const std::string name_;
  // Written once in the constructor, immutable thereafter — safe to read
  // from any thread without mu_.
  Schema schema_ DC_UNGUARDED;
  // schema_ minus the arrival column — cached so single-row appends do not
  // rebuild a Schema (field-vector copy) per tuple.
  Schema user_schema_ DC_UNGUARDED;       // construction-time, immutable
  bool has_arrival_ DC_UNGUARDED = false;  // construction-time, immutable
  std::atomic<bool> enabled_{true};
  std::atomic<size_t> capacity_{0};       // 0 = unbounded
  std::atomic<size_t> low_watermark_{0};  // resume point (hysteresis)

  // Counters are atomics so stats() and the factory quiescence check can
  // read them while another thread is appending/consuming.
  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> consumed_{0};
  std::atomic<uint64_t> credit_stalls_{0};
  std::atomic<uint64_t> version_{0};
  std::atomic<uint64_t> peak_rows_{0};
  // Registry mirrors, resolved once at construction. The pointers never
  // change after that (DC_UNGUARDED); the pointees are internally atomic.
  obs::Counter* m_appended_ DC_UNGUARDED;
  obs::Counter* m_dropped_ DC_UNGUARDED;
  obs::Counter* m_consumed_ DC_UNGUARDED;
  obs::Counter* m_credit_stalls_ DC_UNGUARDED;
  obs::Gauge* m_rows_ DC_UNGUARDED;
  // Logical row count (resident + spilled) mirrored on every mutation
  // (Touch), so size() — and with it Factory::CanFire, credit accounting,
  // and firing bodies probing a basket they did not lock — never takes
  // mu_. Taking a basket lock just to read the size is how a firing body
  // once inverted the basket lock order.
  std::atomic<size_t> num_rows_{0};
  // Mirrors of the resident/spilled split (also maintained by Touch).
  // CreditRemaining()/Drained() read resident_rows_: producer credit is a
  // memory bound, and evicting to disk is what must replenish it.
  std::atomic<size_t> resident_rows_{0};
  std::atomic<size_t> spilled_rows_now_{0};
  // Spill tier (null = spilling off, the default: every path then behaves
  // byte-identically to a basket built before the spill tier existed).
  std::atomic<storage::BufferPool*> spill_pool_{nullptr};
  std::atomic<uint64_t> spilled_total_{0};
  std::atomic<uint64_t> faulted_total_{0};
  // Process-wide spill mirrors (storage.*), resolved at construction —
  // stable pointers to internally-atomic counters, like the m_* above.
  obs::Counter* m_spilled_rows_ DC_UNGUARDED;
  obs::Counter* m_spilled_pages_ DC_UNGUARDED;
  obs::Counter* m_faulted_rows_ DC_UNGUARDED;

  mutable RecursiveMutex mu_{LockRank::kBasket};
  Table data_ DC_GUARDED_BY(mu_);
  std::deque<SpillSegment> spilled_ DC_GUARDED_BY(mu_);
  size_t spilled_count_ DC_GUARDED_BY(mu_) = 0;
  std::vector<ExprPtr> constraints_ DC_GUARDED_BY(mu_);
  size_t next_listener_id_ DC_GUARDED_BY(mu_) = 0;
  std::vector<std::pair<size_t, Listener>> listeners_ DC_GUARDED_BY(mu_);
};

/// Scoped basket lock: the annotated replacement for the old
/// AcquireLock() escape hatch. Holds the basket's recursive mutex for a
/// multi-step sequence; Unlock() releases early (snapshot-then-evaluate
/// paths).
class DC_SCOPED_CAPABILITY BasketLock {
 public:
  explicit BasketLock(const Basket* basket) DC_ACQUIRE(basket->mu_)
      : basket_(basket), held_(true) {
    basket_->mu_.Lock();
    // Lock entry implies intent to read contents(); make it whole.
    basket_->EnsureResident();
  }

  ~BasketLock() DC_RELEASE() {
    if (held_) basket_->mu_.Unlock();
  }

  BasketLock(const BasketLock&) = delete;
  BasketLock& operator=(const BasketLock&) = delete;

  void Unlock() DC_RELEASE() {
    basket_->mu_.Unlock();
    held_ = false;
  }

 private:
  const Basket* const basket_;
  bool held_;
};

using BasketPtr = std::shared_ptr<Basket>;

}  // namespace datacell::core

#endif  // DATACELL_CORE_BASKET_H_
