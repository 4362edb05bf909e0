#include "ops/aggregate.h"

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "column/recycler.h"
#include "ops/kernels.h"
#include "ops/project.h"
#include "util/logging.h"
#include "util/strings.h"

namespace datacell::ops {

namespace {

// Encodes one row of the group-key columns into a byte string (same scheme
// as the join; nulls are encoded explicitly so NULL groups exist).
void EncodeGroupKey(const std::vector<Column>& cols, uint32_t row,
                    std::string* buf) {
  buf->clear();
  for (const Column& c : cols) {
    if (!c.IsValid(row)) {
      buf->push_back('n');
      continue;
    }
    switch (c.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp: {
        buf->push_back('i');
        int64_t v = c.ints()[row];
        buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case DataType::kDouble: {
        buf->push_back('d');
        double v = c.doubles()[row];
        buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case DataType::kBool:
        buf->push_back('b');
        buf->push_back(static_cast<char>(c.bools()[row]));
        break;
      case DataType::kString: {
        const std::string& s = c.strings()[row];
        buf->push_back('s');
        uint32_t len = static_cast<uint32_t>(s.size());
        buf->append(reinterpret_cast<const char*>(&len), sizeof(len));
        buf->append(s);
        break;
      }
    }
  }
}

// Output type of an aggregate over an argument column type.
Result<DataType> AggOutputType(AggFunc func, DataType arg) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kSum:
      if (!IsNumeric(arg)) return Status::TypeMismatch("sum on non-numeric");
      return arg == DataType::kDouble ? DataType::kDouble : DataType::kInt64;
    case AggFunc::kAvg:
      if (!IsNumeric(arg)) return Status::TypeMismatch("avg on non-numeric");
      return DataType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg;
  }
  return Status::Internal("unreachable");
}

// Empties `*v` and makes room for `n` elements: in its own storage when
// that is large enough, else in a vector from the recycler (the old
// storage goes back to it).
template <typename T>
void Fit(std::vector<T>* v, size_t n) {
  v->clear();
  if (v->capacity() >= n) return;
  recycler::Park(v);
  *v = recycler::Take<T>(n);
}

// Group ids for a single int64/timestamp key: an open-addressing table
// keyed by the raw int64 (linear probing, Fibonacci hash, kept at most
// half full), with NULL as a group of its own. Ids are handed out in
// first-seen order, exactly as the encoded-key map does. The table starts
// at twice the row count, capped at 2^16 slots, so a batch of mostly
// distinct keys never rehashes and a large batch of few keys stays small.
// The slot arrays are the caller's; growing them draws on the recycler.
void AssignIntGroups(const Column& key, uint32_t* row_group,
                     std::vector<uint32_t>* group_rep,
                     std::vector<int64_t>* slot_keys,
                     std::vector<uint32_t>* slot_gids) {
  constexpr uint32_t kEmpty = UINT32_MAX;
  const size_t n = key.size();
  const int64_t* k = key.ints().data();
  const uint8_t* valid = key.raw_validity();
  int bits = 4;
  while (bits < 16 && (size_t{1} << bits) < 2 * n) ++bits;
  std::vector<int64_t>& keys = *slot_keys;
  std::vector<uint32_t>& gids = *slot_gids;
  Fit(&keys, size_t{1} << bits);
  Fit(&gids, size_t{1} << bits);
  keys.resize(size_t{1} << bits);
  gids.assign(size_t{1} << bits, kEmpty);
  auto home = [](int64_t v, int b) {
    return static_cast<size_t>((static_cast<uint64_t>(v) * simd::kHashMul) >>
                               (64 - b));
  };
  auto grow = [&] {
    ++bits;
    std::vector<int64_t> old_keys =
        std::exchange(keys, recycler::Take<int64_t>(size_t{1} << bits));
    std::vector<uint32_t> old_gids =
        std::exchange(gids, recycler::Take<uint32_t>(size_t{1} << bits));
    keys.resize(size_t{1} << bits);
    gids.assign(size_t{1} << bits, kEmpty);
    const size_t mask = gids.size() - 1;
    for (size_t s = 0; s < old_gids.size(); ++s) {
      if (old_gids[s] == kEmpty) continue;
      size_t h = home(old_keys[s], bits);
      while (gids[h] != kEmpty) h = (h + 1) & mask;
      keys[h] = old_keys[s];
      gids[h] = old_gids[s];
    }
    recycler::Park(&old_keys);
    recycler::Park(&old_gids);
  };
  uint32_t next_gid = 0;
  uint32_t null_gid = kEmpty;
  size_t keyed = 0;  // non-NULL groups, i.e. occupied slots
  for (uint32_t i = 0; i < n; ++i) {
    if (valid != nullptr && valid[i] == 0) {
      if (null_gid == kEmpty) {
        null_gid = next_gid++;
        group_rep->push_back(i);
      }
      row_group[i] = null_gid;
      continue;
    }
    const int64_t v = k[i];
    const size_t mask = gids.size() - 1;
    for (size_t h = home(v, bits);; h = (h + 1) & mask) {
      if (gids[h] == kEmpty) {
        keys[h] = v;
        gids[h] = next_gid;
        row_group[i] = next_gid++;
        group_rep->push_back(i);
        if (++keyed * 2 > gids.size()) grow();
        break;
      }
      if (keys[h] == v) {
        row_group[i] = gids[h];
        break;
      }
    }
  }
}

// Group ids for any other key list: the encoded-key map.
void AssignEncodedGroups(const std::vector<Column>& key_cols,
                         uint32_t* row_group,
                         std::vector<uint32_t>* group_rep) {
  const size_t n = key_cols.empty() ? 0 : key_cols[0].size();
  std::unordered_map<std::string, uint32_t> group_ids;
  std::string buf;
  for (uint32_t i = 0; i < n; ++i) {
    EncodeGroupKey(key_cols, i, &buf);
    auto [it, inserted] =
        group_ids.emplace(buf, static_cast<uint32_t>(group_rep->size()));
    if (inserted) group_rep->push_back(i);
    row_group[i] = it->second;
  }
}

// The per-group folds below are shared by every group-id scheme. Each
// runs one typed loop over the rows and refills `*out` with the finished
// output column (Column::Refill); NULL arguments are skipped, and a group
// that folded nothing outputs NULL (counts output 0). New outputs and
// per-group counts draw their storage from the recycler.

// count(*) when `valid` is null, count(x) otherwise.
void CountGroups(const uint8_t* valid, const std::vector<uint32_t>& rg,
                 size_t groups, Column* out) {
  out->Refill(DataType::kInt64);
  out->Reserve(groups);
  std::vector<int64_t>& count = out->ints();
  count.assign(groups, 0);
  if (valid == nullptr) {
    for (uint32_t g : rg) ++count[g];
  } else {
    for (size_t i = 0; i < rg.size(); ++i) count[rg[i]] += valid[i] != 0;
  }
}

// Marks the groups of a fold's output that folded no value as NULL. The
// common case, where every group folded one, allocates no validity.
void SetFolded(const std::vector<int64_t>& count, Column* out) {
  if (std::find(count.begin(), count.end(), 0) == count.end()) return;
  std::vector<uint8_t> seen = recycler::Take<uint8_t>(count.size());
  seen.resize(count.size());
  for (size_t g = 0; g < count.size(); ++g) seen[g] = count[g] > 0;
  out->SetValidity(std::move(seen));
}

// sum over int64: wraps mod 2^64 (through uint64, never signed-overflow
// UB), like the global SIMD fold.
void SumIntGroups(const Column& arg, const std::vector<uint32_t>& rg,
                  size_t groups, Column* out) {
  const int64_t* x = arg.ints().data();
  const uint8_t* valid = arg.raw_validity();
  out->Refill(DataType::kInt64);
  out->Reserve(groups);
  std::vector<int64_t>& o = out->ints();
  o.assign(groups, 0);
  auto add = [&o](uint32_t g, int64_t v) {
    o[g] = static_cast<int64_t>(static_cast<uint64_t>(o[g]) +
                                static_cast<uint64_t>(v));
  };
  // Group ids come from the rows, so with no NULL argument and at least
  // one row every group folded a value and none needs counting.
  if (valid == nullptr && !rg.empty()) {
    for (size_t i = 0; i < rg.size(); ++i) add(rg[i], x[i]);
    return;
  }
  recycler::Scratch<int64_t> count(groups);
  count->assign(groups, 0);
  for (size_t i = 0; i < rg.size(); ++i) {
    const bool ok = valid == nullptr || valid[i] != 0;
    add(rg[i], ok ? x[i] : 0);
    (*count)[rg[i]] += ok;
  }
  SetFolded(*count, out);
}

// sum over double, or avg over either numeric type (the double running
// sum of the values, divided by their count).
template <typename T>
void SumF64Groups(const T* x, const uint8_t* valid,
                  const std::vector<uint32_t>& rg, size_t groups, bool avg,
                  Column* out) {
  out->Refill(DataType::kDouble);
  out->Reserve(groups);
  std::vector<double>& sum = out->doubles();
  sum.assign(groups, 0);
  recycler::Scratch<int64_t> count(groups);
  count->assign(groups, 0);
  for (size_t i = 0; i < rg.size(); ++i) {
    if (valid != nullptr && valid[i] == 0) continue;
    sum[rg[i]] += static_cast<double>(x[i]);
    ++(*count)[rg[i]];
  }
  if (avg) {
    for (size_t g = 0; g < groups; ++g) {
      if ((*count)[g] > 0) sum[g] /= static_cast<double>((*count)[g]);
    }
  }
  SetFolded(*count, out);
}

// min/max in the argument's own type: int64 compares exactly, double by
// `<` (a leading NaN sticks), strings lexicographically, false < true.
template <typename T, typename View>
void MinMaxGroups(const Column& arg, View x, const std::vector<uint32_t>& rg,
                  size_t groups, bool want_max, Column* out) {
  const uint8_t* valid = arg.raw_validity();
  std::vector<T> best = recycler::Take<T>(groups);
  best.resize(groups);
  recycler::Scratch<int64_t> count(groups);
  count->assign(groups, 0);
  for (size_t i = 0; i < rg.size(); ++i) {
    if (valid != nullptr && valid[i] == 0) continue;
    const uint32_t g = rg[i];
    if ((*count)[g]++ == 0 || (want_max ? best[g] < x[i] : x[i] < best[g])) {
      best[g] = x[i];
    }
  }
  out->Refill(arg.type());
  if constexpr (std::is_same_v<T, int64_t>) {
    out->ints() = std::move(best);
  } else if constexpr (std::is_same_v<T, double>) {
    out->doubles() = std::move(best);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    out->bools() = std::move(best);
  } else {
    out->strings() = std::move(best);
  }
  SetFolded(*count, out);
}

Status FoldGroups(const AggItem& item, const Column& arg,
                  const std::vector<uint32_t>& rg, size_t groups,
                  Column* out) {
  const bool want_max = item.func == AggFunc::kMax;
  switch (item.func) {
    case AggFunc::kCountStar:
      CountGroups(nullptr, rg, groups, out);
      return Status::OK();
    case AggFunc::kCount:
      CountGroups(arg.raw_validity(), rg, groups, out);
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      const bool avg = item.func == AggFunc::kAvg;
      if (arg.type() == DataType::kDouble) {
        SumF64Groups(arg.doubles().data(), arg.raw_validity(), rg, groups,
                     avg, out);
      } else if (!avg) {
        SumIntGroups(arg, rg, groups, out);
      } else {
        SumF64Groups(arg.ints().data(), arg.raw_validity(), rg, groups,
                     /*avg=*/true, out);
      }
      return Status::OK();
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      switch (arg.type()) {
        case DataType::kInt64:
        case DataType::kTimestamp:
          MinMaxGroups<int64_t>(arg, arg.ints(), rg, groups, want_max, out);
          return Status::OK();
        case DataType::kDouble:
          MinMaxGroups<double>(arg, arg.doubles(), rg, groups, want_max, out);
          return Status::OK();
        case DataType::kBool:
          MinMaxGroups<uint8_t>(arg, arg.bools(), rg, groups, want_max, out);
          return Status::OK();
        case DataType::kString:
          MinMaxGroups<std::string>(arg, arg.strings(), rg, groups, want_max,
                                    out);
          return Status::OK();
      }
      break;
  }
  return Status::Internal("unreachable");
}

// One-row output (of type `out_t`) of a global aggregate over a numeric
// argument, from the columnar fold kernel: morsel-gridded SIMD
// count/sum/min/max with partials merged in morsel order (DESIGN.md §12).
// Int avg derives from the exact integer sum. Refills `*out`.
void FoldGlobalNumeric(const AggItem& item, const Column& arg, DataType out_t,
                       Column* out) {
  const simd::FoldState f = kern::FoldNumeric(arg);
  const bool is_double = arg.type() == DataType::kDouble;
  const int64_t count = static_cast<int64_t>(f.count);
  const bool want_max = item.func == AggFunc::kMax;
  out->Refill(out_t);
  switch (item.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      out->AppendInt(count);
      break;
    case AggFunc::kSum:
      if (count == 0) {
        out->AppendNull();
      } else if (is_double) {
        out->AppendDouble(f.dsum);
      } else {
        out->AppendInt(static_cast<int64_t>(f.isum));
      }
      break;
    case AggFunc::kAvg:
      if (count == 0) {
        out->AppendNull();
      } else {
        const double sum = is_double ? f.dsum
                                     : static_cast<double>(
                                           static_cast<int64_t>(f.isum));
        out->AppendDouble(sum / static_cast<double>(count));
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (!f.seen) {
        out->AppendNull();
      } else if (is_double) {
        out->AppendDouble(want_max ? f.dmax : f.dmin);
      } else {
        out->AppendInt(want_max ? f.imax : f.imin);
      }
      break;
  }
}

}  // namespace

Result<AggFunc> AggFuncFromName(const std::string& name, bool star) {
  std::string n = ToLower(name);
  if (n == "count") return star ? AggFunc::kCountStar : AggFunc::kCount;
  if (star) return Status::ParseError("'*' argument only valid for count");
  if (n == "sum") return AggFunc::kSum;
  if (n == "avg") return AggFunc::kAvg;
  if (n == "min") return AggFunc::kMin;
  if (n == "max") return AggFunc::kMax;
  return Status::BindError("unknown aggregate function '" + name + "'");
}

Result<Table> Aggregate(const Table& table, const std::vector<GroupItem>& groups,
                        const std::vector<AggItem>& aggs,
                        const EvalContext& ctx, const SelVector* sel,
                        AggregateState* state) {
  AggregateState local;
  AggregateState& st = state != nullptr ? *state : local;
  // On every exit no column of the input stays referenced, and large
  // storage goes back to the recycler (the outputs' once the consumer lets
  // go of them).
  struct Release {
    AggregateState& st;
    ~Release() {
      for (std::vector<Column>* cols : {&st.key_cols, &st.arg_cols, &st.outs}) {
        for (Column& c : *cols) {
          if (c.Large() || (cols != &st.outs && c.Shared())) c.Clear();
        }
      }
      recycler::Park(&st.row_group);
      recycler::Park(&st.group_rep);
      recycler::Park(&st.slot_keys);
      recycler::Park(&st.slot_gids);
    }
  } release{st};
  SelectedRows rows(table, sel);
  const size_t n = rows.num_rows();

  // Evaluate group keys and aggregate arguments once, vectorized.
  std::vector<Column>& key_cols = st.key_cols;
  key_cols.resize(groups.size(), Column(DataType::kInt64));
  for (size_t g = 0; g < groups.size(); ++g) {
    RETURN_NOT_OK(rows.EvalInto(*groups[g].expr, ctx, &key_cols[g]));
  }
  std::vector<Column>& arg_cols = st.arg_cols;
  arg_cols.resize(aggs.size(), Column(DataType::kInt64));
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggItem& a = aggs[i];
    if (a.func == AggFunc::kCountStar) {
      arg_cols[i].Refill(DataType::kInt64);
      continue;
    }
    RETURN_NOT_OK(rows.EvalInto(*a.arg, ctx, &arg_cols[i]));
    const DataType t = arg_cols[i].type();
    if ((a.func == AggFunc::kSum || a.func == AggFunc::kAvg) &&
        !IsNumeric(t)) {
      return Status::TypeMismatch("aggregate '" + a.name +
                                  "' requires a numeric argument, got " +
                                  DataTypeName(t));
    }
  }

  // Group id per input row; groups 0..k-1 in first-seen order. Only this
  // step depends on the key: a single integer key probes an int64 table,
  // any other key list the encoded-key map.
  std::vector<uint32_t>& row_group = st.row_group;
  Fit(&row_group, n);
  row_group.resize(n);
  // Representative row per group.
  std::vector<uint32_t>& group_rep = st.group_rep;
  Fit(&group_rep, groups.empty() ? 0 : n);
  if (groups.size() == 1 && IsIntegerPhysical(key_cols[0].type())) {
    AssignIntGroups(key_cols[0], row_group.data(), &group_rep, &st.slot_keys,
                    &st.slot_gids);
  } else if (!groups.empty()) {
    AssignEncodedGroups(key_cols, row_group.data(), &group_rep);
  }
  const size_t num_groups = groups.empty() ? 1 : group_rep.size();

  // Output: group columns (the representative rows' keys), then one folded
  // column per aggregate. The schema is built again only when a key or
  // argument type differs from the last call's.
  bool same_types = st.types.size() == groups.size() + aggs.size();
  for (size_t i = 0; same_types && i < st.types.size(); ++i) {
    same_types = st.types[i] == (i < groups.size()
                                     ? key_cols[i].type()
                                     : arg_cols[i - groups.size()].type());
  }
  std::vector<Field> fields;
  if (!same_types) fields.reserve(groups.size() + aggs.size());
  std::vector<Column>& outs = st.outs;
  outs.resize(groups.size() + aggs.size(), Column(DataType::kInt64));
  for (size_t g = 0; g < groups.size(); ++g) {
    const DataType t = key_cols[g].type();
    if (!same_types) fields.push_back({groups[g].name, t});
    outs[g].Refill(t);
    RETURN_NOT_OK(outs[g].AppendColumnRows(key_cols[g], group_rep));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggItem& item = aggs[a];
    const Column& arg = arg_cols[a];
    Column* out = &outs[groups.size() + a];
    DataType arg_t =
        item.func == AggFunc::kCountStar ? DataType::kInt64 : arg.type();
    ASSIGN_OR_RETURN(DataType out_t, AggOutputType(item.func, arg_t));
    if (!same_types) fields.push_back({item.name, out_t});
    if (groups.empty() && item.func != AggFunc::kCountStar &&
        IsNumeric(arg.type())) {
      FoldGlobalNumeric(item, arg, out_t, out);
      continue;
    }
    RETURN_NOT_OK(FoldGroups(item, arg, row_group, num_groups, out));
  }
  if (!same_types) {
    ASSIGN_OR_RETURN(st.schema, Schema::Make(std::move(fields)));
    st.types.clear();
    for (const Column& c : key_cols) st.types.push_back(c.type());
    for (const Column& c : arg_cols) st.types.push_back(c.type());
  }
  return Table(st.schema, std::vector<Column>(outs.begin(), outs.end()));
}

}  // namespace datacell::ops
