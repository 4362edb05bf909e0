#include "sql/plan/optimizer.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "expr/eval.h"
#include "obs/plans.h"
#include "sql/plan/rewrite.h"
#include "util/logging.h"

namespace datacell::sql::plan {

namespace {

std::string LeafBasketName(const std::string& query) {
  return "mqo.q." + query;
}

// Teardown paths unregister factories that this optimizer registered, so a
// failure (NotFound = already unregistered) is an invariant break worth a
// log line — but never worth abandoning a rebuild halfway through, which
// would strand the surviving queries without a net.
void UnregisterOrWarn(core::Scheduler& scheduler,
                      const core::FactoryPtr& factory, const char* where) {
  if (Status st = scheduler.Unregister(factory); !st.ok()) {
    DC_LOG(Warn) << "optimizer " << where
                 << ": unregister failed: " << st.ToString();
  }
}

std::string ConjunctsText(const std::vector<Conjunct>& cs) {
  if (cs.empty()) return "replicate";
  std::string out;
  for (size_t i = 0; i < cs.size(); ++i) {
    if (i > 0) out += " and ";
    out += cs[i].expr->ToString();
  }
  return out;
}

std::string ConjunctsFps(const std::vector<Conjunct>& cs) {
  std::string out;
  for (size_t i = 0; i < cs.size(); ++i) {
    if (i > 0) out += ",";
    out += cs[i].fp;
  }
  return out;
}

}  // namespace

QuerySetOptimizer::QuerySetOptimizer(core::Engine* engine,
                                     FactoryBuilder builder)
    : engine_(engine), build_factory_(std::move(builder)) {}

QuerySetOptimizer::ConjunctCounters* QuerySetOptimizer::CountersFor(
    const std::string& fp) {
  std::unique_ptr<ConjunctCounters>& slot = counters_[fp];
  if (slot == nullptr) slot = std::make_unique<ConjunctCounters>();
  return slot.get();
}

Result<core::FactoryPtr> QuerySetOptimizer::AddQuery(
    const std::string& name, std::shared_ptr<Statement> stmt,
    core::Emitter::Sink sink) {
  if (queries_.count(name) > 0) {
    return Status::AlreadyExists("continuous query already registered: " +
                                 name);
  }
  QueryInfo info;
  info.stmt = stmt;
  info.sink = std::move(sink);
  if (sharing_enabled_) {
    Result<CompiledQuery> compiled =
        CompileContinuous(engine_, name, stmt, cost_);
    if (compiled.ok()) {
      info.cq = std::move(*compiled);
      info.direct = false;
      RETURN_NOT_OK(AddShared(name, std::move(info)));
      return queries_[name].factory;
    }
  }
  RETURN_NOT_OK(AddDirect(name, std::move(info)));
  return queries_[name].factory;
}

Status QuerySetOptimizer::AddDirect(const std::string& name, QueryInfo info) {
  ASSIGN_OR_RETURN(info.factory, build_factory_(name, info.stmt, info.sink));
  engine_->scheduler().Register(info.factory);
  queries_[name] = std::move(info);
  obs::PlansRegistry::Global().Publish(
      name, {obs::PlanRow{name, name, "direct", "one factory per query", "",
                          1, 0}});
  return Status::OK();
}

Status QuerySetOptimizer::AddShared(const std::string& name, QueryInfo info) {
  const std::string basket = info.cq.source_basket;  // survives the move below
  ASSIGN_OR_RETURN(core::BasketPtr source, engine_->GetBasket(basket));
  ASSIGN_OR_RETURN(
      info.leaf,
      engine_->CreateBasket(LeafBasketName(name), source->schema(),
                            /*add_arrival_ts=*/false));
  queries_[name] = std::move(info);
  ever_shared_.insert(basket);
  Status rebuilt = RebuildSubnet(basket);
  if (!rebuilt.ok()) {
    queries_.erase(name);
    if (Status st = engine_->DropBasket(LeafBasketName(name)); !st.ok()) {
      DC_LOG(Warn) << "optimizer AddQuery rollback: drop leaf basket failed: "
                   << st.ToString();
    }
    return rebuilt;
  }
  return Status::OK();
}

Status QuerySetOptimizer::RemoveQuery(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("no such continuous query: " + name);
  }
  QueryInfo info = std::move(it->second);
  queries_.erase(it);
  obs::PlansRegistry::Global().Retract(name);
  if (info.direct) {
    UnregisterOrWarn(engine_->scheduler(), info.factory, "RemoveQuery");
    return Status::OK();
  }
  // Shared subnet: stop this query's leaf factory, then rebuild the trie
  // for the remaining members. The rebuild's drain delivers in-flight
  // tuples to the survivors' leaves, so their output streams are
  // unaffected by the departure.
  UnregisterOrWarn(engine_->scheduler(), info.factory, "RemoveQuery");
  RETURN_NOT_OK(RebuildSubnet(info.cq.source_basket));
  peak_retired_ = std::max(peak_retired_, info.leaf->stats().peak_rows);
  return engine_->DropBasket(LeafBasketName(name));
}

Status QuerySetOptimizer::DrainSubnet(const std::string& basket,
                                      Subnet* old) {
  // Deepest stages first: tuples resident deeper in the net arrived (and
  // were admitted) earlier, so draining bottom-up appends older tuples to
  // each leaf before younger ones — arrival order is preserved. The source
  // basket itself (root input) is left alone; the new net consumes it.
  EvalContext ectx;
  ectx.now = engine_->Now();
  for (size_t i = old->stages.size(); i-- > 0;) {
    Stage& s = old->stages[i];
    if (s.in->name() == basket) continue;
    peak_retired_ = std::max(peak_retired_, s.in->stats().peak_rows);
    Table residual = s.in->TakeAll();
    if (residual.num_rows() == 0) continue;
    for (const std::string& qname : s.descendants) {
      auto qit = queries_.find(qname);
      if (qit == queries_.end()) continue;  // being removed
      const QueryInfo& q = qit->second;
      // Apply the conjuncts this tuple batch had not yet passed.
      SelVector sel(residual.num_rows());
      std::iota(sel.begin(), sel.end(), 0);
      for (const Conjunct& c : q.cq.shared) {
        if (s.cum_before.count(c.fp) > 0) continue;
        if (sel.empty()) break;
        ASSIGN_OR_RETURN(sel,
                         EvalPredicateOn(residual, *c.expr, sel, ectx));
      }
      if (sel.empty()) continue;
      Table matched = residual.Take(sel);
      ASSIGN_OR_RETURN(size_t appended,
                       q.leaf->AppendAligned(matched, ectx.now));
      (void)appended;
    }
  }
  return Status::OK();
}

Status QuerySetOptimizer::BuildStages(const std::string& basket,
                                      const std::vector<std::string>& members,
                                      Subnet* out) {
  ASSIGN_OR_RETURN(core::BasketPtr source, engine_->GetBasket(basket));

  // How many members share each conjunct: widely shared conjuncts order
  // first so common prefixes factor into one chain; estimated selectivity
  // (live observations override heuristics) breaks ties, fingerprints make
  // the order deterministic.
  std::map<std::string, size_t> share_count;
  for (const std::string& qname : members) {
    for (const Conjunct& c : queries_[qname].cq.shared) {
      share_count[c.fp] += 1;
    }
  }

  struct TrieNode {
    std::map<std::string, TrieNode> kids;  // edge fingerprint -> child
    Conjunct edge;                         // conjunct on the edge into this
    std::vector<std::string> attached;
  };
  TrieNode root;
  for (const std::string& qname : members) {
    std::vector<Conjunct> ordered;
    if (factoring_enabled_) {
      ordered = queries_[qname].cq.shared;
      for (Conjunct& c : ordered) {
        c.est_sel = cost_.EstimateSelectivity(*c.expr, c.fp);
      }
      std::sort(ordered.begin(), ordered.end(),
                [&](const Conjunct& a, const Conjunct& b) {
                  const size_t ca = share_count[a.fp];
                  const size_t cb = share_count[b.fp];
                  if (ca != cb) return ca > cb;
                  if (a.est_sel != b.est_sel) return a.est_sel < b.est_sel;
                  return a.fp < b.fp;
                });
    }
    TrieNode* cur = &root;
    for (const Conjunct& c : ordered) {
      cur = &cur->kids[c.fp];
      cur->edge = c;
    }
    cur->attached.push_back(qname);
  }

  // Trie -> stages with path compression: runs of unattached single-child
  // nodes collapse into one stage evaluating the whole conjunct run.
  std::function<size_t(TrieNode*, std::vector<Conjunct>,
                       std::set<std::string>)>
      build = [&](TrieNode* n, std::vector<Conjunct> lead,
                  std::set<std::string> cum_before) -> size_t {
    while (n->attached.empty() && n->kids.size() == 1) {
      TrieNode& kid = n->kids.begin()->second;
      lead.push_back(kid.edge);
      n = &kid;
    }
    const size_t idx = out->stages.size();
    out->stages.emplace_back();
    std::set<std::string> cum_after = cum_before;
    for (const Conjunct& c : lead) cum_after.insert(c.fp);
    {
      Stage& s = out->stages[idx];
      s.conjuncts = std::move(lead);
      s.cum_before = std::move(cum_before);
      s.attached = n->attached;
      s.descendants = n->attached;
      if (idx == 0) {
        s.name = "mqo." + basket + ".root";
        s.in = source;
      } else {
        std::string path;
        for (const std::string& fp : cum_after) path += fp;
        s.name = "mqo." + basket + ".s" + FingerprintHex(path).substr(0, 8);
        s.in = std::make_shared<core::Basket>(s.name, source->schema(),
                                              /*add_arrival_ts=*/false);
      }
    }
    for (auto& [fp, kid] : n->kids) {
      const size_t cidx = build(&kid, {kid.edge}, cum_after);
      Stage& s = out->stages[idx];
      s.children.push_back(cidx);
      const Stage& child = out->stages[cidx];
      s.descendants.insert(s.descendants.end(), child.descendants.begin(),
                           child.descendants.end());
    }
    return idx;
  };
  build(&root, {}, {});
  return Status::OK();
}

core::Factory::Body QuerySetOptimizer::StageBody(
    const Stage& stage, std::vector<core::BasketPtr> outs) {
  std::vector<Conjunct> conjuncts = stage.conjuncts;
  std::vector<ConjunctCounters*> counters;
  counters.reserve(conjuncts.size());
  for (const Conjunct& c : conjuncts) counters.push_back(CountersFor(c.fp));
  return [conjuncts, counters,
          outs = std::move(outs)](core::FactoryContext& ctx) -> Status {
    Table batch = ctx.input(0).TakeAll();
    const size_t n = batch.num_rows();
    if (n == 0) return Status::OK();
    SelVector sel(n);
    std::iota(sel.begin(), sel.end(), 0);
    const EvalContext ectx = ctx.eval();
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      counters[i]->rows_in.fetch_add(sel.size(), std::memory_order_relaxed);
      ASSIGN_OR_RETURN(
          sel, EvalPredicateOn(batch, *conjuncts[i].expr, sel, ectx));
      counters[i]->rows_out.fetch_add(sel.size(), std::memory_order_relaxed);
    }
    if (sel.empty()) return Status::OK();
    const Table matched = sel.size() == n ? std::move(batch) : batch.Take(sel);
    for (const core::BasketPtr& b : outs) {
      ASSIGN_OR_RETURN(size_t appended, b->AppendAligned(matched, ctx.now()));
      (void)appended;
    }
    return Status::OK();
  };
}

Status QuerySetOptimizer::RebuildSubnet(const std::string& basket) {
  std::vector<std::string> members;
  for (const auto& [qname, q] : queries_) {
    if (!q.direct && q.cq.source_basket == basket) members.push_back(qname);
  }

  // Tear down the old net first: unregister every transition (the
  // scheduler waits out in-flight firings), then drain the old stage
  // baskets into the leaves so no in-flight tuple is lost.
  auto old = subnets_.find(basket);
  if (old != subnets_.end()) {
    for (Stage& s : old->second.stages) {
      UnregisterOrWarn(engine_->scheduler(), s.factory, "RebuildSubnet");
    }
    for (const std::string& qname : members) {
      if (queries_[qname].factory != nullptr) {
        UnregisterOrWarn(engine_->scheduler(), queries_[qname].factory,
                         "RebuildSubnet");
      }
    }
    RETURN_NOT_OK(DrainSubnet(basket, &old->second));
    subnets_.erase(old);
  }
  if (members.empty()) return Status::OK();

  Subnet net;
  RETURN_NOT_OK(BuildStages(basket, members, &net));

  // Leaf factories: the original statement with the upstream-evaluated
  // conjuncts stripped and its FROM redirected to the leaf basket.
  for (const std::string& qname : members) {
    QueryInfo& q = queries_[qname];
    std::set<std::string> strip;
    for (const Stage& s : net.stages) {
      if (std::find(s.attached.begin(), s.attached.end(), qname) ==
          s.attached.end()) {
        continue;
      }
      strip = s.cum_before;
      for (const Conjunct& c : s.conjuncts) strip.insert(c.fp);
      break;
    }
    ASSIGN_OR_RETURN(std::shared_ptr<Statement> leaf_stmt,
                     MakeLeafStatement(engine_, q.cq, LeafBasketName(qname),
                                       strip));
    ASSIGN_OR_RETURN(q.factory, build_factory_(qname, leaf_stmt, q.sink));
  }

  // Stage factories, wired to child stage baskets + attached leaves.
  for (size_t i = 0; i < net.stages.size(); ++i) {
    Stage& s = net.stages[i];
    std::vector<core::BasketPtr> outs;
    for (const size_t c : s.children) outs.push_back(net.stages[c].in);
    for (const std::string& qname : s.attached) {
      outs.push_back(queries_[qname].leaf);
    }
    auto factory = std::make_shared<core::Factory>(s.name, StageBody(s, outs));
    factory->AddInput(s.in, 1);
    for (const core::BasketPtr& b : outs) factory->AddOutput(b);
    s.factory = std::move(factory);
  }

  // Register leaves before stages so a stage's very first firing signals
  // an already-listening consumer (Register itself re-checks eligibility,
  // so drained-in rows also wake the leaves immediately).
  for (const std::string& qname : members) {
    engine_->scheduler().Register(queries_[qname].factory);
  }
  for (Stage& s : net.stages) engine_->scheduler().Register(s.factory);

  PublishPlans(net);
  subnets_[basket] = std::move(net);
  return Status::OK();
}

void QuerySetOptimizer::PublishPlans(const Subnet& net) {
  if (net.stages.empty()) return;
  double base = static_cast<double>(net.stages[0].in->size());
  if (base <= 0) base = 1000;
  for (const std::string& qname : net.stages[0].descendants) {
    std::vector<obs::PlanRow> rows;
    double est = base;
    for (const Stage& s : net.stages) {
      if (std::find(s.descendants.begin(), s.descendants.end(), qname) ==
          s.descendants.end()) {
        continue;
      }
      for (const Conjunct& c : s.conjuncts) est *= c.est_sel;
      est = std::max(est, 1.0);
      rows.push_back(obs::PlanRow{
          qname, s.name, "stage", ConjunctsText(s.conjuncts),
          ConjunctsFps(s.conjuncts),
          static_cast<int64_t>(s.descendants.size()), est});
    }
    rows.push_back(obs::PlanRow{qname, qname, "leaf",
                                "execute rewritten statement on mqo.q." +
                                    qname,
                                "", 1, est});
    obs::PlansRegistry::Global().Publish(qname, std::move(rows));
  }
}

size_t QuerySetOptimizer::SharedCount(const std::string& basket,
                                      const std::string& fp) const {
  size_t n = 0;
  for (const auto& [qname, q] : queries_) {
    if (q.direct || q.cq.source_basket != basket) continue;
    for (const Conjunct& c : q.cq.shared) {
      if (c.fp == fp) {
        ++n;
        break;
      }
    }
  }
  return n;
}

uint64_t QuerySetOptimizer::PeakResidentRows() const {
  uint64_t peak = peak_retired_;
  for (const auto& [basket, net] : subnets_) {
    for (const Stage& s : net.stages) {
      if (s.in->name() == basket) continue;  // source basket is not ours
      peak = std::max(peak, s.in->stats().peak_rows);
    }
  }
  for (const auto& [qname, q] : queries_) {
    if (q.leaf != nullptr) peak = std::max(peak, q.leaf->stats().peak_rows);
  }
  return peak;
}

Result<size_t> QuerySetOptimizer::Reoptimize() {
  for (const auto& [fp, counters] : counters_) {
    cost_.RecordObserved(fp,
                         counters->rows_in.load(std::memory_order_relaxed),
                         counters->rows_out.load(std::memory_order_relaxed));
  }
  std::vector<std::string> drifted;
  for (const auto& [basket, net] : subnets_) {
    bool dirty = false;
    for (const Stage& s : net.stages) {
      for (const Conjunct& c : s.conjuncts) {
        if (cost_.Drifted(c.est_sel, c.fp)) {
          dirty = true;
          break;
        }
      }
      if (dirty) break;
    }
    if (dirty) drifted.push_back(basket);
  }
  for (const std::string& basket : drifted) {
    RETURN_NOT_OK(RebuildSubnet(basket));
  }
  return drifted.size();
}

}  // namespace datacell::sql::plan
