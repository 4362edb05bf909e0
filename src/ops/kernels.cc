#include "ops/kernels.h"

#include "column/recycler.h"

namespace datacell::ops::kern {

namespace {

// Runs an index-emitting kernel per morsel into per-morsel chunks and
// concatenates them in morsel order into `*out` (cleared first; a single
// morsel emits straight into it, reusing its capacity). EmitChunk(begin,
// end, *chunk) appends ascending indices for rows [begin, end). Every
// buffer has room for its worst case (all rows match), so the emitters
// never reallocate; large ones come from, and the chunks go back to, the
// recycler.
template <typename EmitChunk>
void SelectChunked(size_t n, EmitChunk emit, SelVector* out) {
  out->clear();
  const size_t num = NumMorsels(n);
  if (num <= 1) {
    recycler::Reserve(out, n);
    emit(size_t{0}, n, out);
    return;
  }
  std::vector<SelVector> chunks(num);
  // The emitters cannot fail; RunMorsels' Status is for kernels that can.
  RunMorsels(n, [&](size_t m, size_t begin, size_t end) {
    chunks[m] = recycler::Take<uint32_t>(end - begin);
    emit(begin, end, &chunks[m]);
    return Status::OK();
  }).IgnoreError();
  size_t total = 0;
  for (const SelVector& c : chunks) total += c.size();
  recycler::Reserve(out, total);
  for (SelVector& c : chunks) {
    out->insert(out->end(), c.begin(), c.end());
    recycler::Park(&c);
  }
}

template <typename FoldChunk>
simd::FoldState FoldChunked(size_t n, FoldChunk fold) {
  const size_t num = NumMorsels(n);
  if (num <= 1) return fold(size_t{0}, n);
  std::vector<simd::FoldState> parts(num);
  RunMorsels(n, [&](size_t m, size_t begin, size_t end) {
    parts[m] = fold(begin, end);
    return Status::OK();
  }).IgnoreError();  // infallible callback, see above
  simd::FoldState acc;
  // Merge in morsel order — the determinism contract's combine sequence.
  for (const simd::FoldState& p : parts) acc.MergeFrom(p);
  return acc;
}

}  // namespace

bool CmpFromBinaryOp(BinaryOp op, simd::Cmp* out) {
  switch (op) {
    case BinaryOp::kEq:
      *out = simd::Cmp::kEq;
      return true;
    case BinaryOp::kNe:
      *out = simd::Cmp::kNe;
      return true;
    case BinaryOp::kLt:
      *out = simd::Cmp::kLt;
      return true;
    case BinaryOp::kLe:
      *out = simd::Cmp::kLe;
      return true;
    case BinaryOp::kGt:
      *out = simd::Cmp::kGt;
      return true;
    case BinaryOp::kGe:
      *out = simd::Cmp::kGe;
      return true;
    default:
      return false;
  }
}

void SelectCmpI64Col(const Column& col, simd::Cmp op, int64_t k,
                     SelVector* out) {
  const ColumnView<int64_t> v = col.ints();
  const uint8_t* valid = col.raw_validity();
  SelectChunked(
      v.size(),
      [&](size_t begin, size_t end, SelVector* chunk) {
        simd::SelectCmpI64(v.data() + begin, valid ? valid + begin : nullptr,
                           end - begin, op, k, static_cast<uint32_t>(begin),
                           chunk);
      },
      out);
}

void SelectCmpF64Col(const Column& col, simd::Cmp op, double k,
                     SelVector* out) {
  const ColumnView<double> v = col.doubles();
  const uint8_t* valid = col.raw_validity();
  SelectChunked(
      v.size(),
      [&](size_t begin, size_t end, SelVector* chunk) {
        simd::SelectCmpF64(v.data() + begin, valid ? valid + begin : nullptr,
                           end - begin, op, k, static_cast<uint32_t>(begin),
                           chunk);
      },
      out);
}

SelVector SelectCmpI64Col(const Column& col, simd::Cmp op, int64_t k) {
  SelVector out;
  SelectCmpI64Col(col, op, k, &out);
  return out;
}

SelVector SelectCmpF64Col(const Column& col, simd::Cmp op, double k) {
  SelVector out;
  SelectCmpF64Col(col, op, k, &out);
  return out;
}

SelVector SelectRangeI64Col(const Column& col, int64_t a, int64_t b) {
  const ColumnView<int64_t> v = col.ints();
  const uint8_t* valid = col.raw_validity();
  SelVector out;
  SelectChunked(
      v.size(),
      [&](size_t begin, size_t end, SelVector* chunk) {
        simd::SelectRangeI64(v.data() + begin, valid ? valid + begin : nullptr,
                             end - begin, a, b, static_cast<uint32_t>(begin),
                             chunk);
      },
      &out);
  return out;
}

SelVector SelectRangeF64Col(const Column& col, double lo, bool lo_inclusive,
                            double hi, bool hi_inclusive) {
  const ColumnView<double> v = col.doubles();
  const uint8_t* valid = col.raw_validity();
  SelVector out;
  SelectChunked(
      v.size(),
      [&](size_t begin, size_t end, SelVector* chunk) {
        simd::SelectRangeF64(v.data() + begin, valid ? valid + begin : nullptr,
                             end - begin, lo, lo_inclusive, hi, hi_inclusive,
                             static_cast<uint32_t>(begin), chunk);
      },
      &out);
  return out;
}

simd::FoldState FoldNumeric(const Column& col) {
  const uint8_t* valid = col.raw_validity();
  if (col.type() == DataType::kDouble) {
    const ColumnView<double> v = col.doubles();
    return FoldChunked(v.size(), [&](size_t begin, size_t end) {
      return simd::FoldF64(v.data() + begin, valid ? valid + begin : nullptr,
                           end - begin);
    });
  }
  const ColumnView<int64_t> v = col.ints();
  return FoldChunked(v.size(), [&](size_t begin, size_t end) {
    return simd::FoldI64(v.data() + begin, valid ? valid + begin : nullptr,
                         end - begin);
  });
}

void HashI64Span(const int64_t* d, size_t n, std::vector<uint64_t>* out) {
  out->resize(n);
  RunMorsels(n, [&](size_t, size_t begin, size_t end) {
    simd::HashI64(d + begin, end - begin, out->data() + begin);
    return Status::OK();
  }).IgnoreError();  // infallible callback, see above
}

}  // namespace datacell::ops::kern
