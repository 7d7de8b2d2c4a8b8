#include "sudaf/rewriter.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <sstream>

#include "engine/executor.h"
#include "engine/ordering.h"
#include "expr/evaluator.h"
#include "expr/parser.h"

namespace sudaf {

namespace {

uint64_t NextLibraryStamp() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

UdafLibrary::UdafLibrary() : stamp_(NextLibraryStamp()) {}

UdafLibrary::UdafLibrary(UdafLibrary&& other) noexcept
    : exprs_(std::move(other.exprs_)),
      natives_(std::move(other.natives_)),
      stamp_(other.stamp_) {
  other.stamp_ = NextLibraryStamp();
}

UdafLibrary& UdafLibrary::operator=(UdafLibrary&& other) noexcept {
  if (this != &other) {
    exprs_ = std::move(other.exprs_);
    natives_ = std::move(other.natives_);
    stamp_ = other.stamp_;
    other.stamp_ = NextLibraryStamp();
  }
  return *this;
}

Status UdafLibrary::Define(const std::string& name,
                           const std::vector<std::string>& params,
                           const std::string& expression) {
  if (IsKnownScalarFunc(name)) {
    return Status::InvalidArgument("cannot redefine scalar function " + name);
  }
  SUDAF_ASSIGN_OR_RETURN(ExprPtr body, ParseExpression(expression));
  if (!body->ContainsAggregate()) {
    return Status::InvalidArgument("UDAF " + name +
                                   " contains no aggregate call");
  }
  UdafDefinition def;
  def.name = name;
  def.params = params;
  def.body = std::move(body);
  exprs_[name] = std::move(def);
  stamp_ = NextLibraryStamp();
  return Status::OK();
}

Status UdafLibrary::DefineNative(NativeUdaf udaf) {
  auto native = std::make_shared<Native>();
  for (const std::string& tmpl : udaf.state_templates) {
    SUDAF_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression(tmpl));
    native->states.push_back(std::move(e));
  }
  const std::string name = udaf.name;
  native->udaf = std::move(udaf);
  natives_[name] = std::move(native);
  stamp_ = NextLibraryStamp();
  return Status::OK();
}

const UdafDefinition* UdafLibrary::GetExpr(const std::string& name) const {
  auto it = exprs_.find(name);
  return it == exprs_.end() ? nullptr : &it->second;
}

std::shared_ptr<const UdafLibrary::Native> UdafLibrary::GetNative(
    const std::string& name) const {
  auto it = natives_.find(name);
  return it == natives_.end() ? nullptr : it->second;
}

std::vector<std::string> UdafLibrary::Names() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : exprs_) names.push_back(name);
  for (const auto& [name, _] : natives_) names.push_back(name);
  return names;
}

Result<ExprPtr> UdafLibrary::Expand(const Expr& expr) const {
  ExprPtr current = expr.Clone();
  // Iterate to a fixpoint so definitions may reference other definitions.
  for (int round = 0; round < 16; ++round) {
    bool changed = false;
    for (const auto& [name, def] : exprs_) {
      if (current->ContainsFunc(name)) {
        current = ExpandFunctionCalls(*current, name, def.params, *def.body);
        changed = true;
      }
    }
    if (!changed) return current;
  }
  return Status::InvalidArgument("UDAF definitions appear to be recursive");
}

UdafLibrary UdafLibrary::Standard() {
  UdafLibrary lib;
  auto def = [&lib](const std::string& name,
                    const std::vector<std::string>& params,
                    const std::string& body) {
    Status st = lib.Define(name, params, body);
    SUDAF_CHECK_MSG(st.ok(), st.ToString());
  };
  def("avg", {"x"}, "sum(x)/count()");
  def("var", {"x"}, "sum(x^2)/count() - (sum(x)/count())^2");
  def("stddev", {"x"}, "sqrt(sum(x^2)/count() - (sum(x)/count())^2)");
  // Power means (Table 1, first row) with p = 2, 3, 4, -1.
  def("qm", {"x"}, "(sum(x^2)/count())^(1/2)");
  def("cm", {"x"}, "(sum(x^3)/count())^(1/3)");
  def("apm", {"x"}, "(sum(x^4)/count())^(1/4)");
  def("hm", {"x"}, "(sum(x^-1)/count())^(-1)");
  // Geometric mean (Table 1 gives (Πx)^(1/n); the library's default uses
  // the numerically robust equivalent e^(Σln x / n) — SUDAF identifies the
  // two states Πx and Σln x as the same sharing class either way, cf. the
  // Section 2 discussion of gm vs. the moments sketch's Σln(x_i)).
  def("gm", {"x"}, "exp(sum(ln(x))/count())");
  def("gm_prod", {"x"}, "prod(x)^(1/count())");
  // Standardized moments via raw power sums.
  def("skewness", {"x"},
      "(sum(x^3)/count() - 3*(sum(x)/count())*(sum(x^2)/count())"
      " + 2*(sum(x)/count())^3)"
      " / (sum(x^2)/count() - (sum(x)/count())^2)^1.5");
  def("kurtosis", {"x"},
      "(sum(x^4)/count() - 4*(sum(x)/count())*(sum(x^3)/count())"
      " + 6*(sum(x)/count())^2*(sum(x^2)/count())"
      " - 3*(sum(x)/count())^4)"
      " / (sum(x^2)/count() - (sum(x)/count())^2)^2");
  // Simple linear regression (the motivating example).
  def("theta1", {"x", "y"},
      "(count()*sum(x*y) - sum(y)*sum(x))"
      " / (count()*sum(x^2) - sum(x)^2)");
  def("theta0", {"x", "y"}, "sum(y)/count() - theta1(x, y)*(sum(x)/count())");
  // Bivariate aggregates (Table 1).
  def("covar", {"x", "y"},
      "sum(x*y)/count() - (sum(x)/count())*(sum(y)/count())");
  def("corr", {"x", "y"},
      "(count()*sum(x*y) - sum(x)*sum(y))"
      " / (sqrt(count()*sum(x^2) - sum(x)^2)"
      "    * sqrt(count()*sum(y^2) - sum(y)^2))");
  def("logsumexp", {"x"}, "ln(sum(exp(x)))");
  return lib;
}

std::string RewrittenQuery::Explain(const SelectStatement& stmt) const {
  std::ostringstream os;
  os << "-- rewritten query (states computed with built-in aggregates)\n";
  os << "SELECT ";
  bool first = true;
  const CanonicalForm& form = plan->form;
  for (const ItemPlan& item : plan->items) {
    if (!first) os << ", ";
    first = false;
    if (item.group_key_index >= 0) {
      os << item.output_name;
    } else if (item.native != nullptr) {
      os << item.native->udaf.name << "[native](";
      for (size_t i = 0; i < item.native_term_indices.size(); ++i) {
        if (i > 0) os << ", ";
        os << form.terminating[item.native_term_indices[i]]->ToString();
      }
      os << ") AS " << item.output_name;
    } else {
      os << form.terminating[item.terminating_index]->ToString() << " AS "
         << item.output_name;
    }
  }
  os << "\nFROM (SELECT ";
  for (const std::string& g : stmt.group_by) os << g << ", ";
  for (size_t i = 0; i < form.states.size(); ++i) {
    if (i > 0) os << ", ";
    os << form.states[i].ToString() << " s" << i + 1;
  }
  os << "\n      FROM ";
  for (size_t i = 0; i < stmt.tables.size(); ++i) {
    if (i > 0) os << ", ";
    os << stmt.tables[i];
  }
  if (stmt.where != nullptr) os << "\n      WHERE " << stmt.where->ToString();
  if (!stmt.group_by.empty()) {
    os << "\n      GROUP BY ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << stmt.group_by[i];
    }
  }
  os << ") TEMP;";
  return os.str();
}

OutputRows PlanOutputRows(const RewrittenQuery& rewritten,
                          const SelectStatement& stmt,
                          const Table& group_keys, int32_t num_groups) {
  OutputRows plan;
  // HAVING needs every group's terminated values before it can cut.
  bool keyed = (!stmt.order_by.empty() || stmt.limit >= 0) &&
               stmt.having == nullptr;
  std::vector<SortKey> keys;
  for (size_t o = 0; keyed && o < stmt.order_by.size(); ++o) {
    const OrderByItem& order = stmt.order_by[o];
    const Column* col = nullptr;
    for (const ItemPlan& item : rewritten.items()) {
      if (item.output_name == order.column && item.group_key_index >= 0) {
        col = &group_keys.column(item.group_key_index);
        break;
      }
    }
    keyed = col != nullptr;  // false: orders by an aggregate
    keys.push_back(SortKey{col, order.ascending});
  }
  if (keyed) {
    plan.presorted = true;
    plan.groups = OrderRows(keys, num_groups, stmt.limit);
  } else {
    plan.groups.resize(num_groups);
    std::iota(plan.groups.begin(), plan.groups.end(), int64_t{0});
  }
  return plan;
}

int64_t ServeState(const StateCache::Entry& entry, bool compact,
                   const OutputRows& rows, const AggStateDef& target,
                   const StateClass* cls, const SharedComputation* share_fn,
                   std::vector<double>* out) {
  const int64_t n = static_cast<int64_t>(rows.groups.size());
  out->resize(n);
  double* dst = out->data();
  // A full entry is read through the output groups; a compact one (and
  // the all-groups plan, whose groups are 0..n-1) row for row.
  const int64_t* index =
      compact || !rows.presorted ? nullptr : rows.groups.data();
  auto for_rows = [n, index](auto&& serve) {
    if (index == nullptr) {
      for (int64_t r = 0; r < n; ++r) serve(r, r);
    } else {
      for (int64_t r = 0; r < n; ++r) serve(r, index[r]);
    }
  };
  const std::vector<double>& main = entry.main;
  const bool restore_sign =
      cls != nullptr && RestoresProductSign(target, *cls);
  if (share_fn == nullptr ||
      (share_fn->IsExactIdentity() && !restore_sign)) {
    for_rows([&](int64_t r, int64_t g) { dst[r] = main[g]; });
  } else if (!restore_sign) {
    for_rows([&](int64_t r, int64_t g) { dst[r] = share_fn->Apply(main[g]); });
  } else {
    const std::vector<double>& sign = entry.sign;
    for_rows([&](int64_t r, int64_t g) {
      dst[r] = ApplyFromClass(target, *cls, *share_fn, main[g],
                              sign.empty() ? 1.0 : sign[g]);
    });
  }
  return n;
}

Result<std::unique_ptr<Table>> AssembleRewrittenResult(
    const RewrittenQuery& rewritten, const SelectStatement& stmt,
    const Table& group_keys, const OutputRows& rows,
    const std::vector<std::vector<double>>& state_columns,
    MetricsRegistry* metrics) {
  const std::vector<ItemPlan>& items = rewritten.items();
  const CanonicalForm& form = rewritten.form();
  Schema out_schema;
  for (const ItemPlan& item : items) {
    DataType type = DataType::kFloat64;
    if (item.group_key_index >= 0) {
      type = group_keys.schema().field(item.group_key_index).type;
    }
    SUDAF_RETURN_IF_ERROR(out_schema.AddField(Field{item.output_name, type}));
  }
  const int64_t n = static_cast<int64_t>(rows.groups.size());
  auto result = std::make_unique<Table>(std::move(out_schema));
  result->Reserve(n);

  if (state_columns.size() < form.states.size()) {
    return Status::Internal("terminate: fewer state columns than states");
  }
  std::vector<const double*> states;
  states.reserve(state_columns.size());
  for (const std::vector<double>& col : state_columns) {
    if (static_cast<int64_t>(col.size()) < n) {
      return Status::Internal("terminate: state column shorter than output");
    }
    states.push_back(col.data());
  }
  const RewritePlan& plan = *rewritten.plan;
  const SlotProgram& program = plan.terminate;
  if (metrics != nullptr) {
    metrics->counter("sudaf.terminate.slots")
        ->Add(program.num_evaluated_slots());
    metrics->counter("sudaf.terminate.shared_slots")
        ->Add(program.num_shared_slots());
  }

  for (size_t i = 0; i < items.size(); ++i) {
    const ItemPlan& item = items[i];
    Column& dst = result->column(static_cast<int>(i));
    if (item.group_key_index >= 0) {
      dst.AppendRows(group_keys.column(item.group_key_index),
                     rows.groups.data(), n);
    }
  }
  SlotBuffers buffers;
  buffers.Init(program, std::min(n, kVector));
  std::vector<double> args;
  std::vector<double> values;
  for (int64_t lo = 0; lo < n; lo += kVector) {
    const int64_t len = std::min(kVector, n - lo);
    EvalVector(program, &buffers, lo, len, states.data());
    for (size_t i = 0; i < items.size(); ++i) {
      const ItemPlan& item = items[i];
      Column& dst = result->column(static_cast<int>(i));
      if (item.group_key_index >= 0) continue;
      if (item.native == nullptr) {
        dst.AppendFloat64s(
            buffers.ptr[plan.terminate_roots[item.terminating_index]], len);
        continue;
      }
      // The native terminating function once per row, over its state
      // terms' slots.
      const size_t k = item.native_term_indices.size();
      args.resize(k);
      values.resize(len);
      for (int64_t r = 0; r < len; ++r) {
        for (size_t j = 0; j < k; ++j) {
          args[j] = buffers.ptr[plan.terminate_roots
                                    [item.native_term_indices[j]]][r];
        }
        SUDAF_ASSIGN_OR_RETURN(values[r], item.native->udaf.terminate(args));
      }
      dst.AppendFloat64s(values.data(), len);
    }
  }
  result->FinishBulkAppend();
  if (rows.presorted) return result;
  return SortAndLimit(std::move(result), stmt);
}

Result<RewrittenQuery> RewriteQuery(const SelectStatement& stmt,
                                    const UdafLibrary& library) {
  // Pass 1: expand UDAF definitions and collect the expressions to
  // canonicalize. Native UDAFs contribute one expression per state.
  struct PendingItem {
    std::string output_name;
    std::string group_key;               // non-empty => group key item
    ExprPtr expanded;                    // aggregate expression
    std::shared_ptr<const UdafLibrary::Native> native;
    std::vector<ExprPtr> native_states;
  };
  std::vector<PendingItem> pending;

  for (const SelectItem& item : stmt.items) {
    PendingItem p;
    p.output_name = SelectItemName(item);
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kColumnRef) {
      p.group_key = e.column;
      pending.push_back(std::move(p));
      continue;
    }
    if (e.kind == ExprKind::kFuncCall &&
        (p.native = library.GetNative(e.func_name)) != nullptr) {
      if (e.args.size() != 1 || e.args[0]->kind != ExprKind::kColumnRef) {
        return Status::InvalidArgument(
            e.func_name + "() expects a single column argument");
      }
      std::vector<std::pair<std::string, const Expr*>> binding;
      binding.emplace_back("x", e.args[0].get());
      for (const ExprPtr& t : p.native->states) {
        p.native_states.push_back(SubstituteColumns(*t, binding));
      }
      pending.push_back(std::move(p));
      continue;
    }
    SUDAF_ASSIGN_OR_RETURN(p.expanded, library.Expand(e));
    if (!p.expanded->ContainsAggregate()) {
      return Status::InvalidArgument(
          "select item is neither a group key nor an aggregate: " +
          e.ToString());
    }
    pending.push_back(std::move(p));
  }

  // Pass 2: joint canonicalization with state deduplication.
  std::vector<const Expr*> exprs;
  for (const PendingItem& p : pending) {
    if (p.expanded != nullptr) exprs.push_back(p.expanded.get());
    for (const ExprPtr& s : p.native_states) exprs.push_back(s.get());
  }

  auto plan = std::make_shared<RewritePlan>();
  if (!exprs.empty()) {
    SUDAF_ASSIGN_OR_RETURN(plan->form, Canonicalize(exprs));
  }

  // Pass 3: item plans.
  int term_cursor = 0;
  for (PendingItem& p : pending) {
    ItemPlan item;
    item.output_name = p.output_name;
    if (!p.group_key.empty()) {
      // Group-key columns are emitted in group-by order by the executor.
      bool found = false;
      for (size_t k = 0; k < stmt.group_by.size(); ++k) {
        if (stmt.group_by[k] == p.group_key) {
          item.group_key_index = static_cast<int>(k);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("select column " + p.group_key +
                                       " is not in GROUP BY");
      }
    } else if (p.native != nullptr) {
      item.native = std::move(p.native);
      for (size_t i = 0; i < p.native_states.size(); ++i) {
        item.native_term_indices.push_back(term_cursor++);
      }
    } else {
      item.terminating_index = term_cursor++;
    }
    plan->items.push_back(std::move(item));
  }

  // Pass 4: every terminating function into one program over the states.
  const SlotLeaves state_leaves{nullptr,
                                static_cast<int>(plan->form.states.size())};
  for (const ExprPtr& term : plan->form.terminating) {
    SUDAF_ASSIGN_OR_RETURN(int root, plan->terminate.Add(*term, state_leaves));
    plan->terminate.MarkRoot(root);
    plan->terminate_roots.push_back(root);
  }
  plan->terminate.Finish();

  // Pass 5: each state's representative in both execution modes.
  for (const AggStateDef& state : plan->form.states) {
    plan->shared.push_back(ClassifyForPlan(state, /*share=*/true));
    plan->direct.push_back(ClassifyForPlan(state, /*share=*/false));
  }

  RewrittenQuery out;
  out.plan = std::move(plan);
  out.data_signature = DataSignature(stmt);
  return out;
}

namespace {

int64_t StringBytes(const std::string& s) {
  return static_cast<int64_t>(s.capacity());
}

int64_t ExprBytes(const Expr* e) {
  if (e == nullptr) return 0;
  int64_t bytes = sizeof(Expr) + StringBytes(e->column) +
                  StringBytes(e->func_name) +
                  static_cast<int64_t>(e->args.capacity() * sizeof(ExprPtr));
  if (e->literal.type() == DataType::kString) {
    bytes += StringBytes(e->literal.string());
  }
  for (const ExprPtr& a : e->args) bytes += ExprBytes(a.get());
  return bytes;
}

// Beyond sizeof(AggStateDef): the input tree and the monomial's map nodes.
int64_t StateHeapBytes(const AggStateDef& s) {
  constexpr int64_t kMapNodeBytes = 48;  // rb-tree node header + value
  int64_t bytes = ExprBytes(s.input.get());
  if (s.norm.has_value()) {
    for (const auto& [col, e] : s.norm->base.exponents) {
      bytes += kMapNodeBytes + StringBytes(col);
    }
  }
  return bytes;
}

int64_t ClassifiedBytes(const std::vector<ClassifiedState>& states) {
  int64_t bytes = static_cast<int64_t>(states.capacity() *
                                       sizeof(ClassifiedState));
  for (const ClassifiedState& c : states) {
    bytes += StringBytes(c.cls.key) + StateHeapBytes(c.cls.rep);
  }
  return bytes;
}

// Everything RewriteQuery reads from `stmt` besides its data signature,
// under the library's stamp. The separators never occur in identifiers
// or in expression text.
std::string MemoKey(const SelectStatement& stmt, uint64_t stamp) {
  std::string key = std::to_string(stamp);
  for (const SelectItem& item : stmt.items) {
    key += '\x1f';
    key += item.expr->ToString();
    key += '\x1e';
    key += item.alias;
  }
  key += '\x1d';
  for (const std::string& g : stmt.group_by) {
    key += g;
    key += '\x1f';
  }
  return key;
}

}  // namespace

int64_t RewritePlan::ApproxBytes() const {
  int64_t bytes = sizeof(RewritePlan);
  bytes += static_cast<int64_t>(form.states.capacity() * sizeof(AggStateDef));
  for (const AggStateDef& s : form.states) bytes += StateHeapBytes(s);
  bytes += static_cast<int64_t>(form.terminating.capacity() * sizeof(ExprPtr));
  for (const ExprPtr& t : form.terminating) bytes += ExprBytes(t.get());
  bytes += static_cast<int64_t>(items.capacity() * sizeof(ItemPlan));
  for (const ItemPlan& item : items) {
    bytes += StringBytes(item.output_name) +
             static_cast<int64_t>(item.native_term_indices.capacity() *
                                  sizeof(int));
  }
  bytes += terminate.ApproxBytes() +
           static_cast<int64_t>(terminate_roots.capacity() * sizeof(int));
  return bytes + ClassifiedBytes(shared) + ClassifiedBytes(direct);
}

Result<RewrittenQuery> RewriteMemo::Rewrite(const SelectStatement& stmt,
                                            const UdafLibrary& library,
                                            bool* hit) {
  std::string key = MemoKey(stmt, library.stamp());
  RewrittenQuery memoized;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      memoized.plan = it->second->plan;
    }
  }
  *hit = memoized.plan != nullptr;
  if (*hit) {
    memoized.data_signature = DataSignature(stmt);
    return memoized;
  }
  SUDAF_ASSIGN_OR_RETURN(RewrittenQuery out, RewriteQuery(stmt, library));
  const int64_t bytes =
      out.plan->ApproxBytes() + static_cast<int64_t>(key.capacity());
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(key) != 0) return out;  // a concurrent miss memoized it
  lru_.push_front(Entry{std::move(key), out.plan, bytes});
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += bytes;
  if (lru_.size() > kCapacity) {
    index_.erase(lru_.back().key);
    bytes_ -= lru_.back().bytes;
    lru_.pop_back();
  }
  return out;
}

size_t RewriteMemo::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

int64_t RewriteMemo::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace sudaf
