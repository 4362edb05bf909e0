#include "column/column.h"

#include <algorithm>

#include "column/recycler.h"
#include "util/logging.h"
#include "util/simd.h"

namespace datacell {

namespace {

bool PhysicalIsInt(DataType t) {
  return t == DataType::kInt64 || t == DataType::kTimestamp;
}

// A consumed prefix shorter than this is never worth compacting: the copy
// would cost more than the memory it reclaims.
constexpr size_t kCompactMinRows = 256;

template <typename It>
It At(It begin, size_t offset) {
  return begin + static_cast<typename std::iterator_traits<It>::difference_type>(
                     offset);
}

// The owner of a recyclable column buffer: when the last Column or
// snapshot drops it, its destructor (the shared pointer's deleter) parks
// the vector's storage in the recycler instead of freeing it.
template <typename T>
struct ParkingBuffer {
  explicit ParkingBuffer(std::vector<T> v) : vec(std::move(v)) {}
  ~ParkingBuffer() { recycler::Park(&vec); }
  ParkingBuffer(const ParkingBuffer&) = delete;
  ParkingBuffer& operator=(const ParkingBuffer&) = delete;

  std::vector<T> vec;
};

// Wraps `v` as a column buffer: one allocation for the control block and
// the vector, as make_shared, and a parking deleter for the recyclable
// element types.
template <typename T>
std::shared_ptr<std::vector<T>> NewBuffer(std::vector<T> v) {
  if constexpr (recycler::kRecyclable<T>) {
    auto owner = std::make_shared<ParkingBuffer<T>>(std::move(v));
    std::vector<T>* vec = &owner->vec;
    return std::shared_ptr<std::vector<T>>(std::move(owner), vec);
  } else {
    return std::make_shared<std::vector<T>>(std::move(v));
  }
}

// A buffer holding the live rows [head, end) of `src`, with room for
// `extra` more.
template <typename T>
std::shared_ptr<std::vector<T>> CopyLive(const std::vector<T>& src,
                                         size_t head, size_t extra) {
  std::vector<T> copy = recycler::Take<T>(src.size() - head + extra);
  copy.insert(copy.end(), At(src.begin(), head), src.end());
  return NewBuffer(std::move(copy));
}

}  // namespace

Column::Column(DataType type) : type_(type) { ResetBuffers(); }

void Column::ResetBuffers() {
  // An empty column owns no buffer: a null pointer of the type's physical
  // alternative. The first write allocates (Detach), so the fresh tables
  // a firing builds and throws away (TakeAll's replacement, schema-only
  // operator outputs) cost no heap allocation per column.
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      data_ = BufPtr<int64_t>();
      break;
    case DataType::kDouble:
      data_ = BufPtr<double>();
      break;
    case DataType::kBool:
      data_ = BufPtr<uint8_t>();
      break;
    case DataType::kString:
      data_ = BufPtr<std::string>();
      break;
  }
  valid_.reset();
  head_ = 0;
}

size_t Column::PhysicalSize() const {
  return std::visit([](const auto& b) { return b ? b->size() : size_t{0}; },
                    data_);
}

bool Column::Shared() const {
  return std::visit([this](const auto& b) { return SharedBuffer(b); }, data_);
}

bool Column::SharesStorageWith(const Column& other) const {
  return std::visit(
      [&](const auto& buf) {
        using P = std::decay_t<decltype(buf)>;
        const P* o = std::get_if<P>(&other.data_);
        return buf != nullptr && o != nullptr && buf.get() == o->get();
      },
      data_);
}

void Column::Reserve(size_t rows) { Detach(/*compact=*/false, rows); }

void Column::Detach(bool compact, size_t extra) {
  // One dispatch on the buffer type for the whole check: the typed
  // appends call this once per value.
  std::visit(
      [&](auto& buf) {
        using T =
            typename std::decay_t<decltype(buf)>::element_type::value_type;
        if (buf == nullptr) {
          // First write into an unallocated column (head_ is 0 and there
          // is no validity here).
          buf = NewBuffer(recycler::Take<T>(extra));
          return;
        }
        if (SharedBuffer(buf)) {
          // Copy only the live rows; the snapshot keeps the old buffer.
          buf = CopyLive(*buf, head_, extra);
          if (valid_ != nullptr) valid_ = CopyLive(*valid_, head_, extra);
          head_ = 0;
          return;
        }
        if (compact && head_ > 0) {
          // Exclusive owner with a stale prefix: reclaim it in place.
          buf->erase(buf->begin(), At(buf->begin(), head_));
          if (valid_ != nullptr) {
            valid_->erase(valid_->begin(), At(valid_->begin(), head_));
          }
          head_ = 0;
        }
        if (extra > 0) {
          recycler::Reserve(buf.get(), buf->size() + extra);
          if (valid_ != nullptr) {
            recycler::Reserve(valid_.get(), valid_->size() + extra);
          }
        }
      },
      data_);
}

void Column::MaybeCompact() {
  if (head_ < kCompactMinRows || head_ * 2 < PhysicalSize()) return;
  if (Shared()) return;  // a snapshot pins the buffer; reclaim later
  Detach(/*compact=*/true);
}

void Column::EnsureValidity(size_t extra) {
  if (valid_ == nullptr) {
    std::vector<uint8_t> valid =
        recycler::Take<uint8_t>(PhysicalSize() + extra);
    valid.assign(PhysicalSize(), 1);
    valid_ = NewBuffer(std::move(valid));
  }
}

void Column::AppendInt(int64_t v) {
  DC_DCHECK(PhysicalIsInt(type_));
  Appendable<int64_t>().push_back(v);
  if (valid_ != nullptr) valid_->push_back(1);
}

void Column::AppendDouble(double v) {
  DC_DCHECK(type_ == DataType::kDouble);
  Appendable<double>().push_back(v);
  if (valid_ != nullptr) valid_->push_back(1);
}

void Column::AppendBool(bool v) {
  DC_DCHECK(type_ == DataType::kBool);
  Appendable<uint8_t>().push_back(v ? 1 : 0);
  if (valid_ != nullptr) valid_->push_back(1);
}

void Column::AppendString(std::string v) {
  DC_DCHECK(type_ == DataType::kString);
  Appendable<std::string>().push_back(std::move(v));
  if (valid_ != nullptr) valid_->push_back(1);
}

void Column::AppendNull() {
  Detach(false);
  EnsureValidity();
  std::visit([](auto& b) { b->emplace_back(); }, data_);
  valid_->push_back(0);
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      if (!v.is_int()) break;
      AppendInt(v.int_value());
      return Status::OK();
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.double_value());
        return Status::OK();
      }
      if (v.is_int()) {
        AppendDouble(static_cast<double>(v.int_value()));
        return Status::OK();
      }
      break;
    case DataType::kBool:
      if (!v.is_bool()) break;
      AppendBool(v.bool_value());
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) break;
      AppendString(v.string_value());
      return Status::OK();
  }
  return Status::TypeMismatch("cannot append " + v.ToString() +
                              " to column of type " + DataTypeName(type_));
}

void Column::SetValidity(std::vector<uint8_t> valid) {
  DC_DCHECK(valid.size() == size());
  if (valid.empty()) return;
  Detach(/*compact=*/true);
  if (std::find(valid.begin(), valid.end(), 0) == valid.end()) {
    valid_.reset();
    return;
  }
  std::visit(
      [&](auto& b) {
        using T = typename std::decay_t<decltype(b)>::element_type::value_type;
        for (size_t i = 0; i < valid.size(); ++i) {
          if (valid[i] == 0) (*b)[i] = T();
        }
      },
      data_);
  valid_ = NewBuffer(std::move(valid));
}

Status Column::AppendColumn(const Column& other) {
  if (other.type_ != type_) {
    return Status::TypeMismatch(std::string("append type mismatch: ") +
                                DataTypeName(other.type_) + " vs " +
                                DataTypeName(type_));
  }
  if (other.empty()) return Status::OK();
  if (empty()) {
    // Zero-copy fan-out: share the source's buffers (and its head offset)
    // exactly as a snapshot copy would.
    data_ = other.data_;
    valid_ = other.valid_;
    head_ = other.head_;
    return Status::OK();
  }
  Detach(false, other.size());
  if (other.has_nulls()) EnsureValidity(other.size());
  std::visit(
      [&](auto& dst) {
        using P = std::decay_t<decltype(dst)>;
        const auto& src = *std::get<P>(other.data_);
        dst->insert(dst->end(), At(src.begin(), other.head_), src.end());
      },
      data_);
  if (valid_ != nullptr) {
    if (other.has_nulls()) {
      valid_->insert(valid_->end(), At(other.valid_->begin(), other.head_),
                     other.valid_->end());
    } else {
      valid_->insert(valid_->end(), other.size(), 1);
    }
  }
  return Status::OK();
}

Status Column::AppendColumnRows(const Column& other, const SelVector& sel) {
  if (other.type_ != type_) {
    return Status::TypeMismatch(std::string("append type mismatch: ") +
                                DataTypeName(other.type_) + " vs " +
                                DataTypeName(type_));
  }
  if (sel.empty()) return Status::OK();
  Detach(false, sel.size());
  if (other.has_nulls()) EnsureValidity(sel.size());
  std::visit(
      [&](auto& dst) {
        using P = std::decay_t<decltype(dst)>;
        using T = typename P::element_type::value_type;
        const auto& src = *std::get<P>(other.data_);
        const size_t old = dst->size();
        if constexpr (std::is_same_v<T, int64_t> || std::is_same_v<T, double>) {
          // Vectorized gather for the numeric fast path (AVX2 i32gather
          // when available). Falls back to the element loop when source
          // and destination share a buffer: resize would invalidate the
          // raw source span.
          if (dst.get() != &src) {
            dst->resize(old + sel.size());
            if constexpr (std::is_same_v<T, int64_t>) {
              simd::GatherI64(src.data() + other.head_, sel.data(),
                              sel.size(), dst->data() + old);
            } else {
              simd::GatherF64(src.data() + other.head_, sel.data(),
                              sel.size(), dst->data() + old);
            }
            return;
          }
        }
        for (uint32_t r : sel) dst->push_back(src[other.head_ + r]);
      },
      data_);
  if (valid_ != nullptr) {
    if (other.has_nulls()) {
      for (uint32_t r : sel) {
        valid_->push_back((*other.valid_)[other.head_ + r]);
      }
    } else {
      valid_->insert(valid_->end(), sel.size(), 1);
    }
  }
  return Status::OK();
}

Value Column::GetValue(size_t i) const {
  DC_DCHECK(i < size());
  if (!IsValid(i)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      return Value(ints()[i]);
    case DataType::kDouble:
      return Value(doubles()[i]);
    case DataType::kBool:
      return Value(bools()[i] != 0);
    case DataType::kString:
      return Value(strings()[i]);
  }
  return Value::Null();
}

Column Column::Take(const SelVector& sel) const {
  Column out(type_);
  Status st = out.AppendColumnRows(*this, sel);
  DC_DCHECK(st.ok());
  return out;
}

template <typename Vec>
void Column::EraseRowsIn(Vec& v, const SelVector& sorted_sel) {
  if (sorted_sel.empty()) return;
  // Single-pass shift: walk the survivors over the holes.
  size_t write = sorted_sel[0];
  size_t del_idx = 0;
  for (size_t read = sorted_sel[0]; read < v.size(); ++read) {
    if (del_idx < sorted_sel.size() && sorted_sel[del_idx] == read) {
      ++del_idx;
      continue;
    }
    v[write++] = std::move(v[read]);
  }
  v.resize(write);
}

void Column::EraseRows(const SelVector& sorted_sel) {
  if (sorted_sel.empty()) return;
  // An ascending unique selection whose maximum is k-1 is exactly the
  // prefix {0..k-1}: consume it by advancing the head instead of shifting.
  if (static_cast<size_t>(sorted_sel.back()) + 1 == sorted_sel.size()) {
    ErasePrefix(sorted_sel.size());
    return;
  }
  Detach(/*compact=*/true);
  std::visit([&](auto& b) { EraseRowsIn(*b, sorted_sel); }, data_);
  if (valid_ != nullptr) EraseRowsIn(*valid_, sorted_sel);
}

void Column::ErasePrefix(size_t n) {
  n = std::min(n, size());
  if (n == 0) return;
  head_ += n;
  if (head_ == PhysicalSize()) {
    // Everything consumed: drop our reference to the buffer entirely
    // (snapshots, if any, keep theirs).
    ResetBuffers();
    return;
  }
  MaybeCompact();
}

void Column::Clear() { ResetBuffers(); }

void Column::Refill(DataType type) {
  if (type != type_ || Large() || Shared()) {
    type_ = type;
    ResetBuffers();
    return;
  }
  std::visit(
      [](auto& buf) {
        if (buf != nullptr) buf->clear();
      },
      data_);
  valid_.reset();
  head_ = 0;
}

bool Column::Large() const {
  return std::visit(
      [](const auto& buf) {
        using T = typename std::decay_t<decltype(buf)>::element_type::value_type;
        return buf != nullptr &&
               buf->capacity() * sizeof(T) >= recycler::kMinBytes;
      },
      data_);
}

std::string Column::ValueToString(size_t i) const {
  return GetValue(i).ToString();
}

}  // namespace datacell
