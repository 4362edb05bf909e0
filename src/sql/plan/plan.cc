#include "sql/plan/plan.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

namespace datacell::sql::plan {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string FingerprintHex(const std::string& s) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, Fnv1a64(s));
  return buf;
}

const char* PlanNodeKindName(PlanNodeKind k) {
  switch (k) {
    case PlanNodeKind::kScan: return "scan";
    case PlanNodeKind::kFilter: return "filter";
    case PlanNodeKind::kWindow: return "window";
    case PlanNodeKind::kProject: return "project";
    case PlanNodeKind::kAggregate: return "aggregate";
    case PlanNodeKind::kJoin: return "join";
    case PlanNodeKind::kSplit: return "split";
  }
  return "?";
}

namespace {

// Cardinalities render as integers: the estimates are coarse and goldens
// must not depend on floating-point formatting.
std::string Rows(double est) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", est);
  return buf;
}

std::string Sel(double sel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", sel);
  return buf;
}

}  // namespace

std::string PlanNode::CanonicalText() const {
  std::string out = PlanNodeKindName(kind);
  out.push_back('(');
  if (kind == PlanNodeKind::kScan) {
    out += relation;
  } else if (kind == PlanNodeKind::kFilter) {
    for (const Conjunct& c : conjuncts) {
      out += c.fp;
      out.push_back(',');
    }
  } else {
    out += detail;
  }
  for (const PlanPtr& child : children) {
    out.push_back(';');
    out += child->CanonicalText();
  }
  out.push_back(')');
  return out;
}

void PlanNode::Render(
    int indent, std::string* out,
    const std::vector<std::pair<std::string, size_t>>* shared_by) const {
  auto pad = [out](int n) { out->append(static_cast<size_t>(n), ' '); };
  if (kind == PlanNodeKind::kFilter) {
    // One line per conjunct so goldens show the selectivity ordering.
    for (const Conjunct& c : conjuncts) {
      pad(indent);
      out->append("filter " + c.expr->ToString() + " [fp " + c.fp +
                  "] sel " + Sel(c.est_sel));
      if (shared_by != nullptr) {
        for (const auto& [fp, n] : *shared_by) {
          if (fp == c.fp && n > 1) {
            out->append(" shared_by=" + std::to_string(n));
            break;
          }
        }
      }
      out->push_back('\n');
    }
  } else {
    pad(indent);
    out->append(PlanNodeKindName(kind));
    if (kind == PlanNodeKind::kScan) {
      out->append(" " + relation + (is_basket ? " (basket" : " (table"));
      out->append(", est " + Rows(est_rows) + " rows)");
    } else if (!detail.empty()) {
      out->append(" " + detail);
    }
    out->push_back('\n');
  }
  for (const PlanPtr& child : children) {
    child->Render(indent + 2, out, shared_by);
  }
}

PlanPtr MakeScan(std::string relation, bool is_basket, double est_rows) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kScan;
  n->relation = std::move(relation);
  n->is_basket = is_basket;
  n->est_rows = est_rows;
  return n;
}

PlanPtr MakeFilter(PlanPtr input, std::vector<Conjunct> conjuncts,
                   double est_rows) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kFilter;
  n->children.push_back(std::move(input));
  n->conjuncts = std::move(conjuncts);
  n->est_rows = est_rows;
  return n;
}

PlanPtr MakeUnary(PlanNodeKind kind, PlanPtr input, std::string detail,
                  double est_rows) {
  auto n = std::make_shared<PlanNode>();
  n->kind = kind;
  n->children.push_back(std::move(input));
  n->detail = std::move(detail);
  n->est_rows = est_rows;
  return n;
}

PlanPtr MakeJoin(PlanPtr left, PlanPtr right, std::string detail,
                 double est_rows) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kJoin;
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  n->detail = std::move(detail);
  n->est_rows = est_rows;
  return n;
}

PlanPtr MakeSplit(std::string binding, std::vector<PlanPtr> children,
                  double est_rows) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kSplit;
  n->children = std::move(children);
  n->detail = std::move(binding);
  n->est_rows = est_rows;
  return n;
}

}  // namespace datacell::sql::plan
