#include "ops/join.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "ops/kernels.h"
#include "util/logging.h"
#include "util/simd.h"

namespace datacell::ops {

namespace {

// Encodes the key columns of row `row` into `buf` with type tags so that
// composite keys cannot collide across types. Returns false if any key part
// is null (null keys never join).
bool EncodeKey(const std::vector<const Column*>& cols, uint32_t row,
               std::string* buf) {
  buf->clear();
  for (const Column* c : cols) {
    if (!c->IsValid(row)) return false;
    switch (c->type()) {
      case DataType::kInt64:
      case DataType::kTimestamp: {
        buf->push_back('i');
        int64_t v = c->ints()[row];
        buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case DataType::kDouble: {
        buf->push_back('d');
        double v = c->doubles()[row];
        buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case DataType::kBool:
        buf->push_back('b');
        buf->push_back(static_cast<char>(c->bools()[row]));
        break;
      case DataType::kString: {
        const std::string& s = c->strings()[row];
        buf->push_back('s');
        uint32_t len = static_cast<uint32_t>(s.size());
        buf->append(reinterpret_cast<const char*>(&len), sizeof(len));
        buf->append(s);
        break;
      }
    }
  }
  return true;
}

Result<std::vector<const Column*>> ResolveKeyColumns(
    const Table& table, const std::vector<JoinKey>& keys, bool left_side) {
  std::vector<const Column*> cols;
  cols.reserve(keys.size());
  for (const JoinKey& k : keys) {
    ASSIGN_OR_RETURN(const Column* c,
                     table.GetColumn(left_side ? k.left : k.right));
    cols.push_back(c);
  }
  return cols;
}

// Fast path for the common stream join: a single int64/timestamp key with
// no nulls on either side. Keys hash in batch through the vectorized
// multiply-shift kernel into a chained power-of-two bucket table — no
// per-row string encoding, no node allocations.
JoinMatches HashJoinIndicesI64(const Column& build_col,
                               const Column& probe_col, bool build_left) {
  const ColumnView<int64_t> bkeys = build_col.ints();
  const ColumnView<int64_t> pkeys = probe_col.ints();
  const size_t build_n = bkeys.size();
  const size_t probe_n = pkeys.size();
  JoinMatches out;
  if (build_n == 0 || probe_n == 0) return out;

  int log2b = 1;
  while ((size_t{1} << log2b) < build_n * 2) ++log2b;
  const int shift = 64 - log2b;

  std::vector<uint64_t> hashes;
  kern::HashI64Span(bkeys.data(), build_n, &hashes);
  std::vector<int32_t> head(size_t{1} << log2b, -1);
  std::vector<int32_t> next(build_n, -1);
  // Insert in reverse row order so every chain lists build rows ascending
  // and each probe's matches come out deterministic in build-row order.
  for (size_t i = build_n; i-- > 0;) {
    const size_t b = hashes[i] >> shift;
    next[i] = head[b];
    head[b] = static_cast<int32_t>(i);
  }

  kern::HashI64Span(pkeys.data(), probe_n, &hashes);
  for (uint32_t i = 0; i < probe_n; ++i) {
    const int64_t k = pkeys[i];
    for (int32_t j = head[hashes[i] >> shift]; j >= 0; j = next[j]) {
      if (bkeys[j] != k) continue;
      if (build_left) {
        out.left.push_back(static_cast<uint32_t>(j));
        out.right.push_back(i);
      } else {
        out.left.push_back(i);
        out.right.push_back(static_cast<uint32_t>(j));
      }
    }
  }
  return out;
}

}  // namespace

Result<JoinMatches> HashJoinIndices(const Table& left, const Table& right,
                                    const std::vector<JoinKey>& keys) {
  if (keys.empty()) {
    return Status::InvalidArgument("hash join requires at least one key");
  }
  ASSIGN_OR_RETURN(auto left_cols, ResolveKeyColumns(left, keys, true));
  ASSIGN_OR_RETURN(auto right_cols, ResolveKeyColumns(right, keys, false));
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool num_ok =
        IsNumeric(left_cols[i]->type()) && IsNumeric(right_cols[i]->type());
    if (left_cols[i]->type() != right_cols[i]->type() && !num_ok) {
      return Status::TypeMismatch("join key type mismatch on '" +
                                  keys[i].left + "'");
    }
    // Physical encodings must match for byte-wise keys.
    if (IsIntegerPhysical(left_cols[i]->type()) !=
        IsIntegerPhysical(right_cols[i]->type())) {
      return Status::TypeMismatch(
          "join key physical type mismatch on '" + keys[i].left +
          "' (int vs double keys are not supported; cast first)");
    }
  }

  // Build on the smaller side.
  const bool build_left = left.num_rows() < right.num_rows();
  const auto& build_cols = build_left ? left_cols : right_cols;
  const auto& probe_cols = build_left ? right_cols : left_cols;
  const size_t build_n = build_left ? left.num_rows() : right.num_rows();
  const size_t probe_n = build_left ? right.num_rows() : left.num_rows();

  if (keys.size() == 1 && IsIntegerPhysical(build_cols[0]->type()) &&
      !build_cols[0]->has_nulls() && !probe_cols[0]->has_nulls()) {
    return HashJoinIndicesI64(*build_cols[0], *probe_cols[0], build_left);
  }

  std::unordered_multimap<std::string, uint32_t> ht;
  ht.reserve(build_n);
  std::string buf;
  for (uint32_t i = 0; i < build_n; ++i) {
    if (EncodeKey(build_cols, i, &buf)) ht.emplace(buf, i);
  }

  JoinMatches out;
  for (uint32_t i = 0; i < probe_n; ++i) {
    if (!EncodeKey(probe_cols, i, &buf)) continue;
    auto [lo, hi] = ht.equal_range(buf);
    for (auto it = lo; it != hi; ++it) {
      if (build_left) {
        out.left.push_back(it->second);
        out.right.push_back(i);
      } else {
        out.left.push_back(i);
        out.right.push_back(it->second);
      }
    }
  }
  return out;
}

Result<JoinMatches> NestedLoopJoin(const Table& left, const Table& right,
                                   const Expr& predicate,
                                   const EvalContext& ctx) {
  // Build the full cross product lazily in blocks of left rows to bound
  // memory: for each left row, evaluate the predicate against all right
  // rows with the left values bound as "variables" is not expressible, so
  // we materialize a combined table per left row only when inputs are
  // small, and otherwise fall back to row-at-a-time via combined chunks.
  JoinMatches out;
  const size_t ln = left.num_rows();
  const size_t rn = right.num_rows();
  if (ln == 0 || rn == 0) return out;

  // Materialize combined chunk: replicate one left row across rn rows and
  // evaluate the predicate vectorized over the right side.
  ASSIGN_OR_RETURN(Table combined_proto, MaterializeJoin(left, right, {}));
  for (uint32_t li = 0; li < ln; ++li) {
    JoinMatches chunk;
    chunk.left.assign(rn, li);
    chunk.right.resize(rn);
    for (uint32_t ri = 0; ri < rn; ++ri) chunk.right[ri] = ri;
    ASSIGN_OR_RETURN(Table combined, MaterializeJoin(left, right, chunk));
    ASSIGN_OR_RETURN(SelVector sel, EvalPredicate(combined, predicate, ctx));
    for (uint32_t s : sel) {
      out.left.push_back(li);
      out.right.push_back(s);
    }
  }
  return out;
}

Result<Table> MaterializeJoin(const Table& left, const Table& right,
                              const JoinMatches& matches) {
  DC_CHECK(matches.left.size() == matches.right.size());
  std::vector<Field> fields = left.schema().fields();
  fields.reserve(left.num_columns() + right.num_columns());
  for (const Field& f : right.schema().fields()) {
    const bool taken =
        std::any_of(fields.begin(), fields.end(),
                    [&](const Field& l) { return l.name == f.name; });
    fields.push_back({taken ? "r_" + f.name : f.name, f.type});
  }
  ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));
  const size_t lcols = left.num_columns();
  for (size_t c = 0; c < lcols; ++c) {
    RETURN_NOT_OK(out.column(c).AppendColumnRows(left.column(c), matches.left));
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    RETURN_NOT_OK(
        out.column(lcols + c).AppendColumnRows(right.column(c), matches.right));
  }
  return out;
}

}  // namespace datacell::ops
