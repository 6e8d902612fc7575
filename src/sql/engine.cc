#include "sql/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/logging.h"
#include "exec/external_sort.h"
#include "exec/operators.h"

namespace setm::sql {

namespace {

// ---------------------------------------------------------------------------
// Binding context: FROM-clause tables and name resolution.
// ---------------------------------------------------------------------------

struct Binding {
  std::string name;  // alias (or table name)
  const Table* table;
  size_t offset;  // first column's index in the combined row
};

class Binder {
 public:
  Binder(std::vector<Binding> bindings, const Params* params)
      : bindings_(std::move(bindings)), params_(params) {}

  /// Resolves [qualifier.]column to a combined-row index.
  Result<size_t> ResolveColumn(const std::string& qualifier,
                               const std::string& column) const {
    if (!qualifier.empty()) {
      for (const Binding& b : bindings_) {
        if (IdentEquals(b.name, qualifier)) {
          auto idx = b.table->schema().FindColumn(column);
          if (!idx.has_value()) {
            return Status::InvalidArgument("table '" + qualifier +
                                           "' has no column '" + column + "'");
          }
          return b.offset + *idx;
        }
      }
      return Status::InvalidArgument("unknown table alias '" + qualifier + "'");
    }
    size_t found = 0;
    int matches = 0;
    for (const Binding& b : bindings_) {
      auto idx = b.table->schema().FindColumn(column);
      if (idx.has_value()) {
        found = b.offset + *idx;
        ++matches;
      }
    }
    if (matches == 0) {
      return Status::InvalidArgument("unknown column '" + column + "'");
    }
    if (matches > 1) {
      return Status::InvalidArgument("ambiguous column '" + column +
                                     "'; qualify it");
    }
    return found;
  }

  /// Lowers an AST expression to an executable Expr over the combined row.
  /// COUNT(*) is rejected here (only valid in aggregate contexts).
  Result<ExprPtr> Bind(const AstExpr& e) const {
    switch (e.kind) {
      case AstExpr::Kind::kColumnRef: {
        auto idx = ResolveColumn(e.qualifier, e.column);
        if (!idx.ok()) return idx.status();
        std::string display =
            e.qualifier.empty() ? e.column : e.qualifier + "." + e.column;
        return ExprPtr(Col(idx.value(), std::move(display)));
      }
      case AstExpr::Kind::kLiteral:
        return ExprPtr(Const(e.literal));
      case AstExpr::Kind::kParameter: {
        auto it = params_->find(e.parameter);
        if (it == params_->end()) {
          return Status::InvalidArgument("unbound parameter :" + e.parameter);
        }
        return ExprPtr(Const(it->second));
      }
      case AstExpr::Kind::kCountStar:
        return Status::InvalidArgument(
            "COUNT(*) is only allowed in the SELECT list or HAVING of an "
            "aggregate query");
      case AstExpr::Kind::kBinary: {
        auto l = Bind(*e.lhs);
        if (!l.ok()) return l.status();
        auto r = Bind(*e.rhs);
        if (!r.ok()) return r.status();
        return ExprPtr(
            Binary(e.op, std::move(l).value(), std::move(r).value()));
      }
    }
    return Status::Internal("unhandled AST expression kind");
  }

  /// Returns the binding index owning combined-row column `index`.
  size_t BindingOf(size_t index) const {
    for (size_t i = bindings_.size(); i-- > 0;) {
      if (index >= bindings_[i].offset) return i;
    }
    return 0;
  }

  const std::vector<Binding>& bindings() const { return bindings_; }

 private:
  std::vector<Binding> bindings_;
  const Params* params_;
};

/// Collects the combined-row column indices referenced by an AST expression.
Status CollectColumns(const AstExpr& e, const Binder& binder,
                      std::vector<size_t>* out) {
  switch (e.kind) {
    case AstExpr::Kind::kColumnRef: {
      auto idx = binder.ResolveColumn(e.qualifier, e.column);
      if (!idx.ok()) return idx.status();
      out->push_back(idx.value());
      return Status::OK();
    }
    case AstExpr::Kind::kBinary:
      SETM_RETURN_IF_ERROR(CollectColumns(*e.lhs, binder, out));
      return CollectColumns(*e.rhs, binder, out);
    default:
      return Status::OK();
  }
}

/// Splits an AST predicate on top-level ANDs.
void SplitConjuncts(const AstExpr* e, std::vector<const AstExpr*>* out) {
  if (e == nullptr) return;
  if (e->kind == AstExpr::Kind::kBinary && e->op == BinaryOp::kAnd) {
    SplitConjuncts(e->lhs.get(), out);
    SplitConjuncts(e->rhs.get(), out);
    return;
  }
  out->push_back(e);
}

/// Rebases column indices of a bound Expr tree by `delta` — used when a
/// predicate bound against the combined row is evaluated against a single
/// table's row.
ExprPtr RebaseExpr(const Expr* e, size_t delta) {
  if (const auto* col = dynamic_cast<const ColumnExpr*>(e)) {
    return Col(col->index() - delta, col->ToString());
  }
  if (const auto* cst = dynamic_cast<const ConstExpr*>(e)) {
    return Const(cst->value());
  }
  const auto* bin = dynamic_cast<const BinaryExpr*>(e);
  SETM_CHECK(bin != nullptr);
  return Binary(bin->op(), RebaseExpr(bin->lhs(), delta),
                RebaseExpr(bin->rhs(), delta));
}

/// Removes adjacent duplicates from a sorted stream (DISTINCT support).
class DedupIterator : public TupleIterator {
 public:
  explicit DedupIterator(std::unique_ptr<TupleIterator> child)
      : child_(std::move(child)) {}

  Result<bool> Next(Tuple* out) override {
    Tuple row;
    while (true) {
      auto more = child_->Next(&row);
      if (!more.ok()) return more.status();
      if (!more.value()) return false;
      if (!has_prev_ || !(row == prev_)) {
        prev_ = row;
        has_prev_ = true;
        *out = std::move(row);
        return true;
      }
    }
  }
  const Schema& schema() const override { return child_->schema(); }

 private:
  std::unique_ptr<TupleIterator> child_;
  Tuple prev_;
  bool has_prev_ = false;
};

/// True if every column index in `cols` is below `limit` (i.e. the predicate
/// only touches the already-joined prefix).
bool AllBelow(const std::vector<size_t>& cols, size_t limit) {
  return std::all_of(cols.begin(), cols.end(),
                     [&](size_t c) { return c < limit; });
}

}  // namespace

// ---------------------------------------------------------------------------
// Value coercion
// ---------------------------------------------------------------------------

Result<Value> CoerceValue(const Value& v, ValueType target) {
  if (v.type() == target) return v;
  switch (target) {
    case ValueType::kInt32: {
      if (!v.IsNumeric()) break;
      if (v.type() == ValueType::kDouble) break;  // lossy; refuse
      const int64_t x = v.NumericInt();
      if (x < std::numeric_limits<int32_t>::min() ||
          x > std::numeric_limits<int32_t>::max()) {
        return Status::InvalidArgument("value " + std::to_string(x) +
                                       " out of INT32 range");
      }
      return Value::Int32(static_cast<int32_t>(x));
    }
    case ValueType::kInt64:
      if (v.type() == ValueType::kInt32) return Value::Int64(v.AsInt32());
      break;
    case ValueType::kDouble:
      if (v.type() == ValueType::kInt32 || v.type() == ValueType::kInt64) {
        return Value::Double(static_cast<double>(v.NumericInt()));
      }
      break;
    case ValueType::kString:
      break;
  }
  return Status::InvalidArgument(
      "cannot coerce " + std::string(ValueTypeName(v.type())) + " value " +
      v.ToString() + " to " + std::string(ValueTypeName(target)));
}

// ---------------------------------------------------------------------------
// SELECT planning & execution
// ---------------------------------------------------------------------------

Result<QueryResult> SqlEngine::RunSelect(const SelectStatement& stmt,
                                         const Params& params) {
  ExecContext ctx = ExecContext::From(db_);

  // Resolve FROM bindings.
  std::vector<Binding> bindings;
  size_t offset = 0;
  for (const TableRef& ref : stmt.from) {
    auto table = db_->catalog()->GetTable(ref.table);
    if (!table.ok()) return table.status();
    for (const Binding& b : bindings) {
      if (IdentEquals(b.name, ref.binding())) {
        return Status::InvalidArgument("duplicate table alias '" +
                                       ref.binding() + "'");
      }
    }
    bindings.push_back(Binding{IdentFold(ref.binding()), table.value(), offset});
    offset += table.value()->schema().NumColumns();
  }
  if (bindings.empty()) {
    return Status::InvalidArgument("FROM clause is required");
  }
  Binder binder(bindings, &params);

  // Classify WHERE conjuncts.
  std::vector<const AstExpr*> conjuncts;
  SplitConjuncts(stmt.where.get(), &conjuncts);

  struct JoinEdge {
    size_t left_col;   // combined index, in the already-joined prefix
    size_t right_col;  // combined index, in the table being added
  };
  // pushdown[i]: predicates referencing only binding i.
  std::vector<std::vector<const AstExpr*>> pushdown(bindings.size());
  // edges[i]: equality predicates usable when joining binding i (i >= 1).
  std::vector<std::vector<JoinEdge>> edges(bindings.size());
  // residual_at[i]: evaluated right after binding i joins.
  std::vector<std::vector<const AstExpr*>> residual_at(bindings.size());

  for (const AstExpr* c : conjuncts) {
    std::vector<size_t> cols;
    SETM_RETURN_IF_ERROR(CollectColumns(*c, binder, &cols));
    if (cols.empty()) {
      residual_at[0].push_back(c);  // constant predicate
      continue;
    }
    // The highest-numbered binding referenced decides placement.
    size_t max_binding = 0;
    for (size_t col : cols) {
      max_binding = std::max(max_binding, binder.BindingOf(col));
    }
    // Single-table predicate?
    bool single = true;
    for (size_t col : cols) {
      if (binder.BindingOf(col) != max_binding) {
        single = false;
        break;
      }
    }
    if (single) {
      pushdown[max_binding].push_back(c);
      continue;
    }
    // Equi-join edge col_a = col_b with exactly one side in max_binding?
    if (c->kind == AstExpr::Kind::kBinary && c->op == BinaryOp::kEq &&
        c->lhs->kind == AstExpr::Kind::kColumnRef &&
        c->rhs->kind == AstExpr::Kind::kColumnRef) {
      auto l = binder.ResolveColumn(c->lhs->qualifier, c->lhs->column);
      auto r = binder.ResolveColumn(c->rhs->qualifier, c->rhs->column);
      if (!l.ok()) return l.status();
      if (!r.ok()) return r.status();
      size_t lcol = l.value();
      size_t rcol = r.value();
      if (binder.BindingOf(rcol) != max_binding) std::swap(lcol, rcol);
      if (binder.BindingOf(rcol) == max_binding &&
          binder.BindingOf(lcol) < max_binding) {
        edges[max_binding].push_back(JoinEdge{lcol, rcol});
        continue;
      }
    }
    residual_at[max_binding].push_back(c);
  }

  // Build the left-deep join tree in FROM order.
  auto scan_with_pushdown =
      [&](size_t i) -> Result<std::unique_ptr<TupleIterator>> {
    std::unique_ptr<TupleIterator> it = bindings[i].table->Scan();
    if (!pushdown[i].empty()) {
      std::vector<ExprPtr> preds;
      for (const AstExpr* c : pushdown[i]) {
        auto bound = binder.Bind(*c);
        if (!bound.ok()) return bound.status();
        // Bound against the combined row; rebase to this table's row.
        preds.push_back(RebaseExpr(bound.value().get(), bindings[i].offset));
      }
      it = std::make_unique<FilterIterator>(std::move(it),
                                            ConjoinAll(std::move(preds)));
    }
    return it;
  };

  auto current_or = scan_with_pushdown(0);
  if (!current_or.ok()) return current_or.status();
  std::unique_ptr<TupleIterator> current = std::move(current_or).value();

  auto apply_residuals =
      [&](std::unique_ptr<TupleIterator> it, size_t binding_index,
          size_t prefix_cols) -> Result<std::unique_ptr<TupleIterator>> {
    // Evaluate every deferred residual whose columns are now available.
    std::vector<ExprPtr> preds;
    for (size_t j = 0; j <= binding_index; ++j) {
      auto& pending = residual_at[j];
      for (auto pit = pending.begin(); pit != pending.end();) {
        std::vector<size_t> cols;
        SETM_RETURN_IF_ERROR(CollectColumns(**pit, binder, &cols));
        if (AllBelow(cols, prefix_cols)) {
          auto bound = binder.Bind(**pit);
          if (!bound.ok()) return bound.status();
          preds.push_back(std::move(bound).value());
          pit = pending.erase(pit);
        } else {
          ++pit;
        }
      }
    }
    if (!preds.empty()) {
      it = std::make_unique<FilterIterator>(std::move(it),
                                            ConjoinAll(std::move(preds)));
    }
    return it;
  };

  size_t prefix_cols = bindings[0].table->schema().NumColumns();
  {
    auto filtered = apply_residuals(std::move(current), 0, prefix_cols);
    if (!filtered.ok()) return filtered.status();
    current = std::move(filtered).value();
  }

  for (size_t i = 1; i < bindings.size(); ++i) {
    auto right_or = scan_with_pushdown(i);
    if (!right_or.ok()) return right_or.status();
    std::unique_ptr<TupleIterator> right = std::move(right_or).value();

    if (!edges[i].empty()) {
      // Equi-join on all available equality edges: sort both sides on the
      // join keys, then merge-scan.
      std::vector<size_t> left_keys, right_keys;
      for (const JoinEdge& e : edges[i]) {
        left_keys.push_back(e.left_col);
        right_keys.push_back(e.right_col - bindings[i].offset);
      }
      current = std::make_unique<SortIterator>(ctx, std::move(current),
                                               TupleComparator(left_keys));
      right = std::make_unique<SortIterator>(ctx, std::move(right),
                                             TupleComparator(right_keys));
      current = std::make_unique<MergeJoinIterator>(
          std::move(current), std::move(right), left_keys, right_keys,
          nullptr);
    } else {
      current = std::make_unique<NestedLoopJoinIterator>(
          std::move(current), std::move(right), nullptr);
    }
    prefix_cols += bindings[i].table->schema().NumColumns();
    auto filtered = apply_residuals(std::move(current), i, prefix_cols);
    if (!filtered.ok()) return filtered.status();
    current = std::move(filtered).value();
  }

  // Aggregate?
  bool has_count = false;
  for (const SelectItem& item : stmt.items) {
    // COUNT(*) only appears as a top-level select item in this subset.
    if (item.expr->kind == AstExpr::Kind::kCountStar) has_count = true;
  }
  const bool aggregate = has_count || !stmt.group_by.empty();

  std::vector<size_t> group_cols;  // combined indices of GROUP BY columns
  if (aggregate) {
    for (const AstExprPtr& g : stmt.group_by) {
      auto idx = binder.ResolveColumn(g->qualifier, g->column);
      if (!idx.ok()) return idx.status();
      group_cols.push_back(idx.value());
    }
    // HAVING COUNT(*) >= <const|param> folds into the aggregation.
    int64_t min_count = 0;
    const AstExpr* residual_having = nullptr;
    if (stmt.having != nullptr) {
      const AstExpr& h = *stmt.having;
      bool folded = false;
      if (h.kind == AstExpr::Kind::kBinary && h.op == BinaryOp::kGe &&
          h.lhs->kind == AstExpr::Kind::kCountStar) {
        Value bound;
        if (h.rhs->kind == AstExpr::Kind::kLiteral) {
          bound = h.rhs->literal;
          folded = true;
        } else if (h.rhs->kind == AstExpr::Kind::kParameter) {
          auto it = params.find(h.rhs->parameter);
          if (it == params.end()) {
            return Status::InvalidArgument("unbound parameter :" +
                                           h.rhs->parameter);
          }
          bound = it->second;
          folded = true;
        }
        if (folded) {
          if (!bound.IsNumeric() || bound.type() == ValueType::kDouble) {
            // Ceil of a fractional threshold keeps >= semantics.
            if (bound.type() == ValueType::kDouble) {
              min_count = static_cast<int64_t>(std::ceil(bound.AsDouble()));
            } else {
              return Status::InvalidArgument("HAVING bound must be numeric");
            }
          } else {
            min_count = bound.NumericInt();
          }
        }
      }
      if (!folded) residual_having = &h;
    }

    current = std::make_unique<SortIterator>(ctx, std::move(current),
                                             TupleComparator(group_cols));
    current = std::make_unique<SortedGroupCountIterator>(std::move(current),
                                                         group_cols, min_count);
    // Rows are now: group columns (in GROUP BY order) + count.

    // Bind an AST expression against the aggregate output row.
    auto bind_agg = [&](const AstExpr& e,
                        auto&& self) -> Result<ExprPtr> {
      switch (e.kind) {
        case AstExpr::Kind::kCountStar:
          return ExprPtr(Col(group_cols.size(), "count"));
        case AstExpr::Kind::kColumnRef: {
          auto idx = binder.ResolveColumn(e.qualifier, e.column);
          if (!idx.ok()) return idx.status();
          for (size_t g = 0; g < group_cols.size(); ++g) {
            if (group_cols[g] == idx.value()) {
              return ExprPtr(Col(g, e.column));
            }
          }
          return Status::InvalidArgument("column '" + e.column +
                                         "' must appear in GROUP BY");
        }
        case AstExpr::Kind::kLiteral:
          return ExprPtr(Const(e.literal));
        case AstExpr::Kind::kParameter: {
          auto it = params.find(e.parameter);
          if (it == params.end()) {
            return Status::InvalidArgument("unbound parameter :" +
                                           e.parameter);
          }
          return ExprPtr(Const(it->second));
        }
        case AstExpr::Kind::kBinary: {
          auto l = self(*e.lhs, self);
          if (!l.ok()) return l;
          auto r = self(*e.rhs, self);
          if (!r.ok()) return r;
          return ExprPtr(
              Binary(e.op, std::move(l).value(), std::move(r).value()));
        }
      }
      return Status::Internal("unhandled AST kind in aggregate binder");
    };

    if (residual_having != nullptr) {
      auto pred = bind_agg(*residual_having, bind_agg);
      if (!pred.ok()) return pred.status();
      current = std::make_unique<FilterIterator>(std::move(current),
                                                 std::move(pred).value());
    }

    // ORDER BY against the aggregate output.
    if (!stmt.order_by.empty()) {
      std::vector<size_t> order_cols;
      for (const AstExprPtr& o : stmt.order_by) {
        auto bound = bind_agg(*o, bind_agg);
        if (!bound.ok()) return bound.status();
        const auto* col = dynamic_cast<const ColumnExpr*>(bound.value().get());
        if (col == nullptr) {
          return Status::InvalidArgument("ORDER BY must name output columns");
        }
        order_cols.push_back(col->index());
      }
      current = std::make_unique<SortIterator>(ctx, std::move(current),
                                               TupleComparator(order_cols));
    }

    // Projection.
    std::vector<ExprPtr> exprs;
    Schema out_schema;
    const Schema& agg_schema = current->schema();
    for (const SelectItem& item : stmt.items) {
      auto bound = bind_agg(*item.expr, bind_agg);
      if (!bound.ok()) return bound.status();
      std::string name = item.alias;
      ValueType type = ValueType::kInt64;
      if (const auto* col =
              dynamic_cast<const ColumnExpr*>(bound.value().get())) {
        type = agg_schema.column(col->index()).type;
        if (name.empty()) name = agg_schema.column(col->index()).name;
      } else if (name.empty()) {
        name = "expr";
      }
      out_schema.AddColumn(Column{IdentFold(name), type});
      exprs.push_back(std::move(bound).value());
    }
    current = std::make_unique<ProjectIterator>(std::move(current),
                                                std::move(exprs), out_schema);
    if (stmt.distinct) {
      std::vector<size_t> all;
      for (size_t i = 0; i < out_schema.NumColumns(); ++i) all.push_back(i);
      current = std::make_unique<SortIterator>(ctx, std::move(current),
                                               TupleComparator(all));
      current = std::make_unique<DedupIterator>(std::move(current));
    }
    auto rows = Collect(current.get());
    if (!rows.ok()) return rows.status();
    QueryResult result;
    result.schema = out_schema;
    result.rows = std::move(rows).value();
    return result;
  }

  // Non-aggregate path: ORDER BY in the combined-row space, then project.
  if (!stmt.order_by.empty()) {
    std::vector<size_t> order_cols;
    for (const AstExprPtr& o : stmt.order_by) {
      if (o->kind == AstExpr::Kind::kCountStar) {
        return Status::InvalidArgument(
            "ORDER BY COUNT(*) requires GROUP BY");
      }
      auto idx = binder.ResolveColumn(o->qualifier, o->column);
      if (!idx.ok()) return idx.status();
      order_cols.push_back(idx.value());
    }
    current = std::make_unique<SortIterator>(ctx, std::move(current),
                                             TupleComparator(order_cols));
  }

  std::vector<ExprPtr> exprs;
  Schema out_schema;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->kind == AstExpr::Kind::kCountStar) {
      return Status::InvalidArgument(
          "COUNT(*) requires GROUP BY in this SQL subset");
    }
    auto bound = binder.Bind(*item.expr);
    if (!bound.ok()) return bound.status();
    std::string name = item.alias;
    ValueType type = ValueType::kInt64;
    if (item.expr->kind == AstExpr::Kind::kColumnRef) {
      auto idx =
          binder.ResolveColumn(item.expr->qualifier, item.expr->column);
      SETM_CHECK(idx.ok());
      const size_t b = binder.BindingOf(idx.value());
      const Schema& ts = binder.bindings()[b].table->schema();
      type = ts.column(idx.value() - binder.bindings()[b].offset).type;
      if (name.empty()) name = item.expr->column;
    } else if (item.expr->kind == AstExpr::Kind::kLiteral) {
      type = item.expr->literal.type();
      if (name.empty()) name = "literal";
    } else if (name.empty()) {
      name = "expr";
    }
    out_schema.AddColumn(Column{IdentFold(name), type});
    exprs.push_back(std::move(bound).value());
  }
  current = std::make_unique<ProjectIterator>(std::move(current),
                                              std::move(exprs), out_schema);
  if (stmt.distinct) {
    std::vector<size_t> all;
    for (size_t i = 0; i < out_schema.NumColumns(); ++i) all.push_back(i);
    current = std::make_unique<SortIterator>(ctx, std::move(current),
                                             TupleComparator(all));
    current = std::make_unique<DedupIterator>(std::move(current));
  }

  auto rows = Collect(current.get());
  if (!rows.ok()) return rows.status();
  QueryResult result;
  result.schema = out_schema;
  result.rows = std::move(rows).value();
  return result;
}

// ---------------------------------------------------------------------------
// DDL / DML
// ---------------------------------------------------------------------------

Result<QueryResult> SqlEngine::RunCreate(const CreateTableStatement& stmt) {
  Schema schema;
  for (const auto& [name, type] : stmt.columns) {
    schema.AddColumn(Column{IdentFold(name), type});
  }
  auto table = db_->catalog()->CreateTable(
      stmt.table, std::move(schema),
      stmt.memory ? TableBacking::kMemory : TableBacking::kHeap);
  if (!table.ok()) return table.status();
  return QueryResult{};
}

Result<QueryResult> SqlEngine::RunInsert(const InsertStatement& stmt,
                                         const Params& params) {
  auto table_or = db_->catalog()->GetTable(stmt.table);
  if (!table_or.ok()) return table_or.status();
  Table* table = table_or.value();
  const Schema& schema = table->schema();

  QueryResult result;
  if (stmt.select != nullptr) {
    auto select = RunSelect(*stmt.select, params);
    if (!select.ok()) return select.status();
    if (select.value().schema.NumColumns() != schema.NumColumns()) {
      return Status::InvalidArgument(
          "INSERT column count mismatch: table has " +
          std::to_string(schema.NumColumns()) + ", SELECT produces " +
          std::to_string(select.value().schema.NumColumns()));
    }
    for (const Tuple& row : select.value().rows) {
      std::vector<Value> values;
      values.reserve(schema.NumColumns());
      for (size_t i = 0; i < schema.NumColumns(); ++i) {
        auto v = CoerceValue(row.value(i), schema.column(i).type);
        if (!v.ok()) return v.status();
        values.push_back(std::move(v).value());
      }
      SETM_RETURN_IF_ERROR(table->Insert(Tuple(std::move(values))));
      ++result.rows_affected;
    }
    return result;
  }

  for (const auto& row : stmt.rows) {
    if (row.size() != schema.NumColumns()) {
      return Status::InvalidArgument("INSERT row arity mismatch");
    }
    std::vector<Value> values;
    values.reserve(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      Value raw;
      if (row[i]->kind == AstExpr::Kind::kLiteral) {
        raw = row[i]->literal;
      } else if (row[i]->kind == AstExpr::Kind::kParameter) {
        auto it = params.find(row[i]->parameter);
        if (it == params.end()) {
          return Status::InvalidArgument("unbound parameter :" +
                                         row[i]->parameter);
        }
        raw = it->second;
      } else {
        return Status::InvalidArgument(
            "VALUES rows must contain literals or parameters");
      }
      auto v = CoerceValue(raw, schema.column(i).type);
      if (!v.ok()) return v.status();
      values.push_back(std::move(v).value());
    }
    SETM_RETURN_IF_ERROR(table->Insert(Tuple(std::move(values))));
    ++result.rows_affected;
  }
  return result;
}

Result<QueryResult> SqlEngine::ExecuteStatement(const Statement& stmt,
                                                const Params& params) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return RunSelect(*stmt.select, params);
    case Statement::Kind::kCreateTable:
      return RunCreate(*stmt.create_table);
    case Statement::Kind::kInsert:
      return RunInsert(*stmt.insert, params);
    case Statement::Kind::kDropTable: {
      SETM_RETURN_IF_ERROR(db_->catalog()->DropTable(stmt.drop_table->table));
      return QueryResult{};
    }
    case Statement::Kind::kDelete: {
      auto table = db_->catalog()->GetTable(stmt.del->table);
      if (!table.ok()) return table.status();
      QueryResult result;
      result.rows_affected = table.value()->num_rows();
      SETM_RETURN_IF_ERROR(table.value()->Truncate());
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> SqlEngine::Execute(const std::string& sql,
                                       const Params& params) {
  auto stmt = Parse(sql);
  if (!stmt.ok()) return stmt.status();
  return ExecuteStatement(stmt.value(), params);
}

}  // namespace setm::sql
