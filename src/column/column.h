#ifndef DATACELL_COLUMN_COLUMN_H_
#define DATACELL_COLUMN_COLUMN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "column/type.h"
#include "column/value.h"
#include "util/status.h"

namespace datacell {

/// A list of row positions, sorted ascending unless stated otherwise.
/// Operators communicate intermediate results as selection vectors over
/// their input to avoid materializing columns (MonetDB-style candidate
/// lists).
using SelVector = std::vector<uint32_t>;

/// Read-only view over the live rows of a column's backing buffer —
/// the MonetDB candidate-friendly answer to handing out the raw vector.
/// Indexing is logical: view[0] is the column's first live row even when
/// a consumed prefix is still physically present.
template <typename T>
class ColumnView {
 public:
  using value_type = T;
  using const_iterator = const T*;

  ColumnView() = default;
  ColumnView(const T* data, size_t size) : data_(data), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* data() const { return data_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  friend bool operator==(const ColumnView& a, const std::vector<T>& b) {
    return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const std::vector<T>& a, const ColumnView& b) {
    return b == a;
  }
  friend bool operator==(const ColumnView& a, const ColumnView& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

/// A single typed column — the DataCell analogue of a MonetDB BAT tail.
///
/// Row identity is positional: the i-th entries of all columns of a table
/// form tuple i (the paper's tuple-order alignment). The head/key column of
/// a BAT is therefore virtual, exactly as in MonetDB.
///
/// Storage is shared copy-on-write, mirroring MonetDB's shared immutable
/// BAT tails: copying a Column is an O(1) refcount bump, so a basket
/// snapshot (`Basket::Peek`) shares buffers with the basket instead of
/// duplicating the stream. Any mutation first *detaches* — if another
/// owner holds the buffer, the live rows are copied into a private one —
/// so snapshots are immutable no matter what the writer does next.
///
/// FIFO consumption is O(1): the column keeps a logical head offset and
/// `ErasePrefix` merely advances it. The consumed prefix is physically
/// reclaimed by amortized compaction once it exceeds half the buffer
/// (skipped while snapshots pin the storage; the next exclusive mutation
/// reclaims it).
///
/// An empty column owns no buffer: constructing one, clearing one or
/// consuming its last row allocates nothing, and the first write
/// allocates. Views of an unallocated column are empty, and two
/// unallocated columns share no storage.
///
/// Nulls are tracked in an optional validity vector that is only
/// materialized once the first null is appended.
///
/// Numeric and validity buffers are recycled: when the last column or
/// snapshot drops one of at least recycler::kMinBytes, its storage is
/// parked in the column kernel's recycler (column/recycler.h), and bulk
/// writes (Take, Reserve, a detaching copy) draw from it.
class Column {
 public:
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const { return PhysicalSize() - head_; }
  bool empty() const { return size() == 0; }

  /// Read-only typed views of the live rows (logical indexing). Cheap to
  /// construct; used by operators for vector-at-a-time processing.
  ColumnView<int64_t> ints() const { return View<int64_t>(); }
  ColumnView<double> doubles() const { return View<double>(); }
  ColumnView<uint8_t> bools() const { return View<uint8_t>(); }
  ColumnView<std::string> strings() const { return View<std::string>(); }

  /// Direct mutable access to the backing vector. Detaches from any
  /// snapshot and compacts the head offset first, so physical and logical
  /// indexing coincide for the returned vector. The alternative must match
  /// the column's physical type (int64 for kInt64/kTimestamp, uint8_t for
  /// kBool).
  std::vector<int64_t>& ints() { return Mutable<int64_t>(); }
  std::vector<double>& doubles() { return Mutable<double>(); }
  std::vector<uint8_t>& bools() { return Mutable<uint8_t>(); }
  std::vector<std::string>& strings() { return Mutable<std::string>(); }

  /// True if any row is null.
  bool has_nulls() const { return valid_ != nullptr; }
  /// Validity of row i (true = non-null).
  bool IsValid(size_t i) const {
    return valid_ == nullptr || (*valid_)[head_ + i] != 0;
  }
  /// Raw validity bytes of the live rows (1 = valid), aligned with the
  /// typed views; nullptr when the column has no nulls. Input to the
  /// vector kernels (util/simd.h). Like the views, the pointer is only
  /// stable until the next mutation — and after ErasePrefix it starts at
  /// an arbitrary offset into the backing buffer, which is why the
  /// kernels use unaligned loads throughout.
  const uint8_t* raw_validity() const {
    return valid_ == nullptr ? nullptr : valid_->data() + head_;
  }

  /// Typed appends (hot path, no Value boxing). The value slot appended for
  /// AppendNull holds a zero/empty placeholder.
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(std::string v);
  void AppendNull();

  /// Checked append from a boxed Value (boundary path). Numeric widening
  /// int->double is applied; anything else mismatched is an error.
  Status AppendValue(const Value& v);

  /// Replaces the validity of the live rows with `valid` (one byte per
  /// row, 1 = valid; size() entries). The value slot of every null row is
  /// reset to the zero/empty placeholder AppendNull writes, and a vector
  /// without a zero leaves the column with no validity at all — so a bulk
  /// kernel that writes its values first and its validity last produces
  /// the same column as the row-at-a-time appends would.
  void SetValidity(std::vector<uint8_t> valid);

  /// Appends all rows of `other` (same type required). Appending into an
  /// empty column adopts `other`'s buffers copy-on-write (a refcount bump,
  /// as for a snapshot); the first mutation on either side detaches.
  Status AppendColumn(const Column& other);
  /// Appends the selected rows of `other`.
  Status AppendColumnRows(const Column& other, const SelVector& sel);

  /// Makes room for `rows` more rows (detaching from snapshots first), so
  /// a bulk kernel that writes n values through ints()/doubles()/bools()
  /// resizes without reallocating. A large buffer comes from the recycler
  /// (column/recycler.h).
  void Reserve(size_t rows);

  /// Boxed read of row i.
  Value GetValue(size_t i) const;

  /// New column with only the selected rows.
  Column Take(const SelVector& sel) const;

  /// Removes the rows in `sorted_sel` (ascending, unique) by shifting the
  /// survivors down in a single pass — the paper's custom "delete a set of
  /// tuples in one go" kernel operator (§6.2). A selection that is exactly
  /// the prefix {0..k-1} is routed through the O(1) head advance instead.
  void EraseRows(const SelVector& sorted_sel);

  /// Removes the first n rows in O(1) by advancing the head offset;
  /// physical compaction is amortized (and deferred while snapshots share
  /// the buffer).
  void ErasePrefix(size_t n);

  /// Drops all rows. O(1) even when snapshots share the storage (they keep
  /// the old buffer; this column starts a fresh one).
  void Clear();

  /// Empties the column to be filled again with values of `type`, for an
  /// operator that keeps its columns from one call to the next. A buffer
  /// no other Column shares, below the recycler's large size, keeps its
  /// storage, so refilling it up to its capacity allocates nothing. Any
  /// other buffer is let go as Clear lets it go.
  void Refill(DataType type);

  /// True when another Column shares either buffer.
  bool Shared() const;

  /// Whether the data buffer is one the recycler takes back
  /// (recycler::kMinBytes of capacity or more): an operator keeping the
  /// column between calls clears it instead.
  bool Large() const;

  /// Rendering of row i for the codec and debugging.
  std::string ValueToString(size_t i) const;

  /// --- Storage introspection (tests, benches, compaction policy) --------
  /// Rows physically present, including the consumed-but-uncompacted
  /// prefix.
  size_t PhysicalSize() const;
  /// Consumed rows not yet physically reclaimed.
  size_t head() const { return head_; }
  /// True if this column and `other` share the same backing buffer (i.e.
  /// one is a zero-copy snapshot of the other).
  bool SharesStorageWith(const Column& other) const;

 private:
  template <typename T>
  using BufPtr = std::shared_ptr<std::vector<T>>;

  template <typename T>
  ColumnView<T> View() const {
    const BufPtr<T>& v = std::get<BufPtr<T>>(data_);
    if (v == nullptr) return ColumnView<T>();
    return ColumnView<T>(v->data() + head_, v->size() - head_);
  }

  template <typename T>
  std::vector<T>& Mutable() {
    Detach(/*compact=*/true);
    return *std::get<BufPtr<T>>(data_);
  }

  // The buffer for an append: Detach(false) for a type known at the call
  // site, which skips the variant dispatch when the buffer is allocated
  // and exclusive (the typed appends run this once per value).
  template <typename T>
  std::vector<T>& Appendable() {
    BufPtr<T>& buf = std::get<BufPtr<T>>(data_);
    if (buf == nullptr || SharedBuffer(buf)) Detach(/*compact=*/false);
    return *buf;
  }

  // Shared() for the data buffer `buf` already dispatched on.
  template <typename P>
  bool SharedBuffer(const P& buf) const {
    if (valid_ != nullptr && valid_.use_count() > 1) return true;
    const bool shared = buf.use_count() > 1;
    if (!shared) {
      // use_count() is a relaxed load. Observing 1 may mean a snapshot on
      // another thread released its reference moments ago; callers take
      // "not shared" as licence to mutate the buffer in place, so those
      // writes must be ordered after that reader's final buffer reads.
      // Take the acquire edge through the refcount itself: copy/destroy
      // of the owner runs acq_rel RMWs on the count, which synchronize
      // with the release half of the snapshot destructor's decrement. (A
      // bare std::atomic_thread_fence(acquire) would also be correct, but
      // TSan does not model fences, so the RMW form keeps sanitizer runs
      // clean.)
      auto pin = buf;
      if (valid_ != nullptr) {
        auto valid_pin = valid_;
      }
    }
    return shared;
  }

  // Ensures exclusive ownership of an allocated buffer (an empty column's
  // null buffer is allocated here, on its first write). With `compact` the
  // head offset is also folded away (required before handing out raw
  // vectors or shifting rows); without it an already-exclusive buffer
  // keeps its head untouched, so appends after prefix consumption stay
  // O(1). Room for `extra` more rows is reserved in the data and validity
  // buffers; a large buffer allocated here comes from the recycler.
  void Detach(bool compact, size_t extra = 0);

  // Amortized reclamation of the consumed prefix; no-op while shared.
  void MaybeCompact();

  // Drops the storage: the column is empty and owns no buffer.
  void ResetBuffers();

  template <typename Vec>
  static void EraseRowsIn(Vec& v, const SelVector& sorted_sel);

  // Lazily materializes the validity vector (all rows currently valid),
  // with room for `extra` more rows. Caller must have detached already.
  void EnsureValidity(size_t extra = 0);

  DataType type_;
  std::variant<BufPtr<int64_t>, BufPtr<double>, BufPtr<uint8_t>,
               BufPtr<std::string>>
      data_;
  BufPtr<uint8_t> valid_;  // null = all valid; aligned with the buffer
  size_t head_ = 0;        // first live physical row
};

}  // namespace datacell

#endif  // DATACELL_COLUMN_COLUMN_H_
