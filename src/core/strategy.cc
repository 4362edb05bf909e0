#include "core/strategy.h"

#include <memory>

#include "expr/eval.h"
#include "util/logging.h"

namespace datacell::core {

namespace {

// Schema for token/flag baskets (no arrival column: pure Petri-net tokens).
Schema TokenSchema() { return Schema({{"flag", DataType::kBool}}); }

Status PushToken(Basket& basket, Micros now) {
  // One cached single-row token table: pushed very frequently by the
  // shared-basket and chain coordination factories.
  static const Table* token_table = [] {
    auto* t = new Table(TokenSchema());
    DC_CHECK(t->AppendRow({Value(true)}).ok());
    return t;
  }();
  ASSIGN_OR_RETURN(size_t n, basket.AppendAligned(*token_table, now));
  (void)n;
  return Status::OK();
}

BasketPtr MakeTokenBasket(const std::string& name) {
  return std::make_shared<Basket>(name, TokenSchema(),
                                  /*add_arrival_ts=*/false);
}

// Output basket carrying the full stream basket schema (arrival column
// already included), so results can be forwarded aligned.
BasketPtr MakeResultBasket(const std::string& name, const Schema& full) {
  return std::make_shared<Basket>(name, full, /*add_arrival_ts=*/false);
}

}  // namespace

void QueryNetwork::RegisterAll(Scheduler* scheduler) const {
  for (const TransitionPtr& t : transitions) scheduler->Register(t);
}

Result<QueryNetwork> BuildSeparateBaskets(
    const Schema& stream_schema, const std::vector<ContinuousQuery>& queries,
    size_t batch_size) {
  QueryNetwork net;
  net.receptor = std::make_shared<Receptor>("receptor");
  for (const ContinuousQuery& q : queries) {
    // Private input basket, replicated into by the receptor.
    auto input = std::make_shared<Basket>("in_" + q.name, stream_schema);
    net.receptor->AddOutput(input);
    auto output = MakeResultBasket("out_" + q.name, input->schema());
    net.outputs.push_back(output);

    auto bexpr = std::make_shared<BasketExpression>(input);
    if (q.predicate != nullptr) bexpr->Where(q.predicate);
    // Consume the whole batch: each tuple is seen exactly once per query.
    bexpr->Consume(ConsumePolicy::kBatch);

    auto factory = std::make_shared<Factory>(
        q.name, [bexpr, output](FactoryContext& ctx) -> Status {
          ASSIGN_OR_RETURN(Table result, bexpr->Evaluate(ctx.eval()));
          if (result.num_rows() == 0) return Status::OK();
          ASSIGN_OR_RETURN(size_t n, output->AppendAligned(result, ctx.now()));
          (void)n;
          return Status::OK();
        });
    factory->AddInput(input, batch_size);
    factory->AddOutput(output);
    net.transitions.push_back(factory);
  }
  return net;
}

Result<QueryNetwork> BuildSharedBaskets(
    const Schema& stream_schema, const std::vector<ContinuousQuery>& queries,
    size_t batch_size) {
  QueryNetwork net;
  const size_t k = queries.size();
  net.receptor = std::make_shared<Receptor>("receptor");
  auto shared = std::make_shared<Basket>("shared", stream_schema);
  net.receptor->AddOutput(shared);

  // Mutual-exclusion token: present when the locker may pin a new batch.
  auto ready = MakeTokenBasket("ready");
  {
    Table t(TokenSchema());
    DC_CHECK(t.AppendRow({Value(true)}).ok());
    auto r = ready->AppendAligned(t, 0);
    DC_CHECK(r.ok());
  }

  // Shared state: how many tuples the current pinned batch holds.
  auto batch_n = std::make_shared<size_t>(0);

  std::vector<BasketPtr> flags;    // locker -> query i
  std::vector<BasketPtr> dones;    // query i -> unlocker
  for (size_t i = 0; i < k; ++i) {
    flags.push_back(MakeTokenBasket("flag_" + queries[i].name));
    dones.push_back(MakeTokenBasket("done_" + queries[i].name));
  }

  // Locker L (Figure 2b): fires when the shared basket has a full batch and
  // the ready token is present; pins the batch size and raises all flags.
  auto locker = std::make_shared<Factory>(
      "locker", [shared, flags, batch_n](FactoryContext& ctx) -> Status {
        ctx.input(1).Clear();  // consume the ready token
        *batch_n = shared->size();
        for (const BasketPtr& f : flags) {
          RETURN_NOT_OK(PushToken(*f, ctx.now()));
        }
        return Status::OK();
      });
  locker->AddInput(shared, batch_size);
  locker->AddInput(ready, 1);
  for (const BasketPtr& f : flags) locker->AddOutput(f);
  net.transitions.push_back(locker);

  // Query factories: read the pinned prefix without consuming.
  for (size_t i = 0; i < k; ++i) {
    const ContinuousQuery& q = queries[i];
    auto output = MakeResultBasket("out_" + q.name, shared->schema());
    net.outputs.push_back(output);
    ExprPtr pred = q.predicate;
    BasketPtr flag = flags[i];
    BasketPtr done = dones[i];
    auto factory = std::make_shared<Factory>(
        q.name,
        [shared, pred, output, flag, done, batch_n](
            FactoryContext& ctx) -> Status {
          flag->Clear();  // consume the trigger token
          // Snapshot the pinned batch — sharing means no per-query copy of
          // the stream (the whole point of this strategy), and the COW
          // snapshot shares the shared basket's buffers, so this is
          // O(#columns). The lock is dropped before predicate evaluation:
          // k readers can then scan the same pinned prefix concurrently,
          // and the unlocker's O(1) ErasePrefix head-advance never
          // disturbs snapshots already taken.
          size_t n;
          Table data;
          {
            const Basket* s = shared.get();
            BasketLock lock(s);
            n = std::min(*batch_n, s->size());
            data = s->contents();
          }
          SelVector prefix(n);
          for (size_t r = 0; r < n; ++r) prefix[r] = static_cast<uint32_t>(r);
          SelVector sel = std::move(prefix);
          if (pred != nullptr) {
            ASSIGN_OR_RETURN(sel, EvalPredicateOn(data, *pred, sel, ctx.eval()));
          }
          if (!sel.empty()) {
            Table result = data.Take(sel);
            ASSIGN_OR_RETURN(size_t cnt,
                             output->AppendAligned(result, ctx.now()));
            (void)cnt;
          }
          return PushToken(*done, ctx.now());
        });
    factory->AddInput(flag, 1);
    factory->AddInput(shared, 1);
    factory->AddOutput(output);
    factory->AddOutput(done);
    net.transitions.push_back(factory);
  }

  // Unlocker U: once every query finished, drop the pinned batch (an O(1)
  // head advance; any reader snapshot still in flight keeps the physical
  // rows alive) and re-arm the locker.
  auto unlocker = std::make_shared<Factory>(
      "unlocker",
      [shared, dones, ready, batch_n](FactoryContext& ctx) -> Status {
        for (const BasketPtr& d : dones) d->Clear();
        RETURN_NOT_OK(shared->ErasePrefix(*batch_n));
        *batch_n = 0;
        return PushToken(*ready, ctx.now());
      });
  for (const BasketPtr& d : dones) unlocker->AddInput(d, 1);
  unlocker->AddOutput(shared);
  unlocker->AddOutput(ready);
  net.transitions.push_back(unlocker);
  return net;
}

Result<QueryNetwork> BuildPartialDeleteChain(
    const Schema& stream_schema, const std::vector<ContinuousQuery>& queries,
    size_t batch_size) {
  QueryNetwork net;
  const size_t k = queries.size();
  DC_CHECK(k > 0);
  net.receptor = std::make_shared<Receptor>("receptor");
  auto shared = std::make_shared<Basket>("chain", stream_schema);
  net.receptor->AddOutput(shared);

  // Round token: lets query i+1 run only after query i finished; the tail
  // re-arms the head so a new batch can start.
  std::vector<BasketPtr> tokens;
  for (size_t i = 0; i < k; ++i) {
    tokens.push_back(MakeTokenBasket("tok_" + std::to_string(i)));
  }
  {
    Table t(TokenSchema());
    DC_CHECK(t.AppendRow({Value(true)}).ok());
    auto r = tokens[0]->AppendAligned(t, 0);
    DC_CHECK(r.ok());
  }

  for (size_t i = 0; i < k; ++i) {
    const ContinuousQuery& q = queries[i];
    auto output = MakeResultBasket("out_" + q.name, shared->schema());
    net.outputs.push_back(output);

    auto bexpr = std::make_shared<BasketExpression>(shared);
    if (q.predicate != nullptr) bexpr->Where(q.predicate);
    // Each query deletes what it consumed (the partial delete); the last
    // one clears the leftover batch so unmatched tuples do not accumulate.
    bexpr->Consume(i + 1 == k ? ConsumePolicy::kBatch : ConsumePolicy::kMatched);

    BasketPtr my_token = tokens[i];
    BasketPtr next_token = tokens[(i + 1) % k];
    auto factory = std::make_shared<Factory>(
        q.name,
        [bexpr, output, my_token, next_token](FactoryContext& ctx) -> Status {
          my_token->Clear();
          ASSIGN_OR_RETURN(Table result, bexpr->Evaluate(ctx.eval()));
          if (result.num_rows() > 0) {
            ASSIGN_OR_RETURN(size_t n, output->AppendAligned(result, ctx.now()));
            (void)n;
          }
          return PushToken(*next_token, ctx.now());
        });
    factory->AddInput(my_token, 1);
    // Only the chain head waits for a full batch; the rest run on the
    // token alone (the batch is already in the basket) — but every chain
    // member deletes from `shared` in place, so it must be in the declared
    // place set. Declaring it as an output keeps the firing rule intact
    // (outputs never gate eligibility) while telling the scheduler that
    // chain members conflict on the shared basket.
    if (i == 0) {
      factory->AddInput(shared, batch_size);
    } else {
      factory->AddOutput(shared);
    }
    factory->AddOutput(output);
    factory->AddOutput(next_token);
    net.transitions.push_back(factory);
  }
  return net;
}

}  // namespace datacell::core
