#ifndef DATACELL_OPS_KERNELS_H_
#define DATACELL_OPS_KERNELS_H_

#include <cstdint>
#include <vector>

#include "column/column.h"
#include "expr/expr.h"
#include "ops/morsel.h"
#include "util/simd.h"
#include "util/status.h"

/// Column-level vectorized kernels: the bridge between whole Columns
/// (COW buffers, validity masks, head offsets) and the raw-span SIMD
/// primitives in util/simd.h. Every kernel runs on the fixed morsel grid
/// via RunMorsels — per-morsel partials land in per-morsel slots and are
/// merged in morsel order, so results are byte-identical whether the
/// morsels ran inline or across the worker pool (DESIGN.md §12).
namespace datacell::ops::kern {

/// Maps the comparison subset of BinaryOp to a kernel op. Returns false
/// for non-comparison ops (arithmetic, and/or).
bool CmpFromBinaryOp(BinaryOp op, simd::Cmp* out);

/// Dense compare-select: ascending indices of live rows where
/// `col <op> k` and the row is non-null. `col` must be kInt64/kTimestamp
/// (I64 flavor) or kDouble (F64 flavor).
SelVector SelectCmpI64Col(const Column& col, simd::Cmp op, int64_t k);
SelVector SelectCmpF64Col(const Column& col, simd::Cmp op, double k);
/// The same selections written into `*out` (its contents replaced), so a
/// caller that keeps `*out` reuses its capacity.
void SelectCmpI64Col(const Column& col, simd::Cmp op, int64_t k,
                     SelVector* out);
void SelectCmpF64Col(const Column& col, simd::Cmp op, double k,
                     SelVector* out);

/// Dense range-select, bounds inclusive (int bounds pre-normalized by
/// the caller; double keeps open/closed flags).
SelVector SelectRangeI64Col(const Column& col, int64_t a, int64_t b);
SelVector SelectRangeF64Col(const Column& col, double lo, bool lo_inclusive,
                            double hi, bool hi_inclusive);

/// Columnar fold (count/sum/min/max) over all live rows. Int columns fill
/// count/isum/imin/imax, double columns count/dsum/dmin/dmax (see
/// simd::FoldState).
simd::FoldState FoldNumeric(const Column& col);

/// Vectorized multiply-shift hash of an int64 span (join build/probe),
/// morsel-gridded. out is resized to n.
void HashI64Span(const int64_t* d, size_t n, std::vector<uint64_t>* out);

}  // namespace datacell::ops::kern

#endif  // DATACELL_OPS_KERNELS_H_
