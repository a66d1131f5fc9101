#include "exec/expr.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/logging.h"

namespace sharing {

std::string_view CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

bool Expr::EvalBool(TupleRef row) const { return EvalInt64(row) != 0; }

std::string_view Expr::EvalString(TupleRef) const {
  SHARING_CHECK(false) << "EvalString on non-string expression";
  return {};
}

void Expr::EvalDoubleBatch(const uint8_t* rows, std::size_t stride,
                           std::size_t n, const Schema& schema,
                           double* out) const {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = EvalDouble(TupleRef(rows + i * stride, &schema));
  }
}

std::size_t Expr::EvalBoolBatch(const uint8_t* rows, std::size_t stride,
                                const Schema& schema, uint32_t* sel,
                                std::size_t n) const {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[kept] = r;
    kept += EvalBool(TupleRef(rows + std::size_t(r) * stride, &schema));
  }
  return kept;
}

namespace {

/// Rows per stack buffer inside the batched kernels: interior nodes
/// process a page in chunks of this many rows, so scratch lives on the
/// stack (1-4 KiB per tree level, on every engine worker thread) and
/// stays in L1. 512 measured no faster.
constexpr std::size_t kChunk = 128;

template <typename T>
T LoadAt(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Compacts the selection chunk in[0, n) into `out`, keeping entry i iff
/// keep(i). `out` may alias `in` or sit before it (each write lands at or
/// before the entry being read), which is how chunks compact in place.
template <typename Keep>
std::size_t Compact(const uint32_t* in, std::size_t n, uint32_t* out,
                    Keep keep) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t r = in[i];
    out[kept] = r;
    kept += keep(i) ? 1 : 0;
  }
  return kept;
}

/// Writes a[0, na) minus its ascending subset b[0, nb) into `out`
/// (aliasing rules as for Compact); returns the count.
std::size_t SelectMinus(const uint32_t* a, std::size_t na, const uint32_t* b,
                        std::size_t nb, uint32_t* out) {
  std::size_t kept = 0, j = 0;
  for (std::size_t i = 0; i < na; ++i) {
    if (j < nb && b[j] == a[i]) {
      ++j;
      continue;
    }
    out[kept++] = a[i];
  }
  return kept;
}

class ColumnExpr final : public Expr {
 public:
  ColumnExpr(std::size_t index, ValueType type)
      : Expr(Kind::kColumn, type), index_(index) {}

  double EvalDouble(TupleRef row) const override {
    switch (output_type()) {
      case ValueType::kInt64:
        return static_cast<double>(row.GetInt64(index_));
      case ValueType::kDouble:
        return row.GetDouble(index_);
      case ValueType::kDate:
        return static_cast<double>(row.GetDate(index_).days_since_epoch);
      case ValueType::kString:
        break;
    }
    SHARING_CHECK(false) << "EvalDouble on string column";
    return 0;
  }

  int64_t EvalInt64(TupleRef row) const override {
    switch (output_type()) {
      case ValueType::kInt64:
        return row.GetInt64(index_);
      case ValueType::kDouble:
        return static_cast<int64_t>(row.GetDouble(index_));
      case ValueType::kDate:
        return row.GetDate(index_).days_since_epoch;
      case ValueType::kString:
        break;
    }
    SHARING_CHECK(false) << "EvalInt64 on string column";
    return 0;
  }

  std::string_view EvalString(TupleRef row) const override {
    SHARING_DCHECK(output_type() == ValueType::kString);
    return row.GetString(index_);
  }

  void EvalDoubleBatch(const uint8_t* rows, std::size_t stride,
                       std::size_t n, const Schema& schema,
                       double* out) const override {
    Load(rows, stride, schema, n, [](std::size_t i) { return i; }, out);
  }

  /// Gathers the selected rows' values into out[0, n).
  template <typename T>
  void Gather(const uint8_t* rows, std::size_t stride, const Schema& schema,
              const uint32_t* sel, std::size_t n, T* out) const {
    Load(rows, stride, schema, n, [sel](std::size_t i) { return sel[i]; },
         out);
  }

  std::string Canonical() const override {
    std::string out = "c";
    out += std::to_string(index_);
    return out;
  }

  std::size_t index() const { return index_; }

 private:
  /// out[i] = the value of row row_of(i) as T (int64_t, double or
  /// std::string_view), converted exactly as the per-row Eval* accessors
  /// convert: one strided load loop per column type.
  template <typename T, typename RowOf>
  void Load(const uint8_t* rows, std::size_t stride, const Schema& schema,
            std::size_t n, RowOf row_of, T* out) const {
    if constexpr (std::is_same_v<T, std::string_view>) {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = TupleRef(rows + std::size_t(row_of(i)) * stride, &schema)
                     .GetString(index_);
      }
    } else {
      const uint8_t* p = rows + schema.offset(index_);
      auto load = [&](auto stored) {
        using Stored = decltype(stored);
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = static_cast<T>(
              LoadAt<Stored>(p + std::size_t(row_of(i)) * stride));
        }
      };
      switch (output_type()) {
        case ValueType::kInt64:
          return load(int64_t{});
        case ValueType::kDouble:
          return load(double{});
        case ValueType::kDate:
          return load(int32_t{});
        case ValueType::kString:
          break;
      }
      SHARING_CHECK(false) << "numeric load from string column";
    }
  }

  std::size_t index_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v)
      : Expr(Kind::kLiteral, TypeOfValue(v)), value_(std::move(v)) {}

  double EvalDouble(TupleRef) const override {
    switch (output_type()) {
      case ValueType::kInt64:
        return static_cast<double>(std::get<int64_t>(value_));
      case ValueType::kDouble:
        return std::get<double>(value_);
      case ValueType::kDate:
        return static_cast<double>(std::get<Date>(value_).days_since_epoch);
      case ValueType::kString:
        break;
    }
    SHARING_CHECK(false) << "EvalDouble on string literal";
    return 0;
  }

  int64_t EvalInt64(TupleRef) const override {
    switch (output_type()) {
      case ValueType::kInt64:
        return std::get<int64_t>(value_);
      case ValueType::kDouble:
        return static_cast<int64_t>(std::get<double>(value_));
      case ValueType::kDate:
        return std::get<Date>(value_).days_since_epoch;
      case ValueType::kString:
        break;
    }
    SHARING_CHECK(false) << "EvalInt64 on string literal";
    return 0;
  }

  std::string_view EvalString(TupleRef) const override {
    SHARING_DCHECK(output_type() == ValueType::kString);
    return std::get<std::string>(value_);
  }

  void EvalDoubleBatch(const uint8_t* rows, std::size_t, std::size_t n,
                       const Schema& schema, double* out) const override {
    std::fill(out, out + n, EvalDouble(TupleRef(rows, &schema)));
  }

  std::string Canonical() const override { return ValueToString(value_); }

 private:
  Value value_;
};

template <typename T>
T EvalAs(const Expr& e, TupleRef row) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return e.EvalInt64(row);
  } else if constexpr (std::is_same_v<T, double>) {
    return e.EvalDouble(row);
  } else {
    return e.EvalString(row);
  }
}

/// Loads comparison operand `e` for the selected rows into out[0, n):
/// a column by a strided load, a literal by a fill, anything else per
/// row.
template <typename T>
void GatherOperand(const Expr& e, const uint8_t* rows, std::size_t stride,
                   const Schema& schema, const uint32_t* sel, std::size_t n,
                   T* out) {
  switch (e.kind()) {
    case Expr::Kind::kColumn:
      static_cast<const ColumnExpr&>(e).Gather(rows, stride, schema, sel, n,
                                               out);
      return;
    case Expr::Kind::kLiteral:
      std::fill(out, out + n, EvalAs<T>(e, TupleRef(rows, &schema)));
      return;
    default:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = EvalAs<T>(
            e, TupleRef(rows + std::size_t(sel[i]) * stride, &schema));
      }
      return;
  }
}

/// Comparison specialised on the operand category decided at construction.
class CompareExpr final : public Expr {
 public:
  enum class Mode { kNumeric, kString };

  CompareExpr(CmpOp op, ExprRef lhs, ExprRef rhs, Mode mode)
      : Expr(Kind::kCompare, ValueType::kInt64),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)),
        mode_(mode) {}

  bool EvalBool(TupleRef row) const override {
    if (mode_ == Mode::kString) {
      return Apply(lhs_->EvalString(row).compare(rhs_->EvalString(row)));
    }
    // Integer-exact when both sides are integral; double otherwise.
    if (lhs_->output_type() != ValueType::kDouble &&
        rhs_->output_type() != ValueType::kDouble) {
      int64_t l = lhs_->EvalInt64(row), r = rhs_->EvalInt64(row);
      return Apply(l < r ? -1 : (l > r ? 1 : 0));
    }
    double l = lhs_->EvalDouble(row), r = rhs_->EvalDouble(row);
    return Apply(l < r ? -1 : (l > r ? 1 : 0));
  }

  double EvalDouble(TupleRef row) const override {
    return EvalBool(row) ? 1.0 : 0.0;
  }
  int64_t EvalInt64(TupleRef row) const override {
    return EvalBool(row) ? 1 : 0;
  }

  std::size_t EvalBoolBatch(const uint8_t* rows, std::size_t stride,
                            const Schema& schema, uint32_t* sel,
                            std::size_t n) const override {
    if (mode_ == Mode::kString) {
      return Narrow<std::string_view>(rows, stride, schema, sel, n);
    }
    if (lhs_->output_type() != ValueType::kDouble &&
        rhs_->output_type() != ValueType::kDouble) {
      return Narrow<int64_t>(rows, stride, schema, sel, n);
    }
    return Narrow<double>(rows, stride, schema, sel, n);
  }

  std::string Canonical() const override {
    std::string out = "(";
    out += lhs_->Canonical();
    out += CmpOpToString(op_);
    out += rhs_->Canonical();
    out += ")";
    return out;
  }

 private:
  /// Per chunk: both operands into buffers, then one compare loop that
  /// compacts the selection. The three-way compare mirrors EvalBool, so
  /// NaN operands behave identically on both paths.
  template <typename T>
  std::size_t Narrow(const uint8_t* rows, std::size_t stride,
                     const Schema& schema, uint32_t* sel,
                     std::size_t n) const {
    T l[kChunk], r[kChunk];
    std::size_t kept = 0;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = std::min(kChunk, n - base);
      GatherOperand(*lhs_, rows, stride, schema, sel + base, m, l);
      GatherOperand(*rhs_, rows, stride, schema, sel + base, m, r);
      auto cmp = [&](std::size_t i) -> int {
        if constexpr (std::is_same_v<T, std::string_view>) {
          return l[i].compare(r[i]);
        } else {
          return l[i] < r[i] ? -1 : (l[i] > r[i] ? 1 : 0);
        }
      };
      auto keep_if = [&](auto test) {
        kept += Compact(sel + base, m, sel + kept,
                        [&](std::size_t i) { return test(cmp(i)); });
      };
      switch (op_) {
        case CmpOp::kEq:
          keep_if([](int c) { return c == 0; });
          break;
        case CmpOp::kNe:
          keep_if([](int c) { return c != 0; });
          break;
        case CmpOp::kLt:
          keep_if([](int c) { return c < 0; });
          break;
        case CmpOp::kLe:
          keep_if([](int c) { return c <= 0; });
          break;
        case CmpOp::kGt:
          keep_if([](int c) { return c > 0; });
          break;
        case CmpOp::kGe:
          keep_if([](int c) { return c >= 0; });
          break;
      }
    }
    return kept;
  }

  bool Apply(int cmp) const {
    switch (op_) {
      case CmpOp::kEq:
        return cmp == 0;
      case CmpOp::kNe:
        return cmp != 0;
      case CmpOp::kLt:
        return cmp < 0;
      case CmpOp::kLe:
        return cmp <= 0;
      case CmpOp::kGt:
        return cmp > 0;
      case CmpOp::kGe:
        return cmp >= 0;
    }
    return false;
  }

  CmpOp op_;
  ExprRef lhs_, rhs_;
  Mode mode_;
};

class AndExpr final : public Expr {
 public:
  explicit AndExpr(std::vector<ExprRef> children)
      : Expr(Kind::kAnd, ValueType::kInt64), children_(std::move(children)) {}

  bool EvalBool(TupleRef row) const override {
    for (const auto& c : children_) {
      if (!c->EvalBool(row)) return false;
    }
    return true;
  }
  double EvalDouble(TupleRef row) const override {
    return EvalBool(row) ? 1.0 : 0.0;
  }
  int64_t EvalInt64(TupleRef row) const override {
    return EvalBool(row) ? 1 : 0;
  }

  /// Each child narrows what the previous ones kept: a row one child
  /// rejects is never shown to the next, as with per-row short-circuit.
  std::size_t EvalBoolBatch(const uint8_t* rows, std::size_t stride,
                            const Schema& schema, uint32_t* sel,
                            std::size_t n) const override {
    for (const auto& c : children_) {
      if (n == 0) break;
      n = c->EvalBoolBatch(rows, stride, schema, sel, n);
    }
    return n;
  }

  std::string Canonical() const override {
    std::string out = "and(";
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i) out += ",";
      out += children_[i]->Canonical();
    }
    return out + ")";
  }

 private:
  std::vector<ExprRef> children_;
};

class OrExpr final : public Expr {
 public:
  explicit OrExpr(std::vector<ExprRef> children)
      : Expr(Kind::kOr, ValueType::kInt64), children_(std::move(children)) {}

  bool EvalBool(TupleRef row) const override {
    for (const auto& c : children_) {
      if (c->EvalBool(row)) return true;
    }
    return false;
  }
  double EvalDouble(TupleRef row) const override {
    return EvalBool(row) ? 1.0 : 0.0;
  }
  int64_t EvalInt64(TupleRef row) const override {
    return EvalBool(row) ? 1 : 0;
  }

  /// Each child sees only the rows no earlier child accepted (per-row
  /// short-circuit); the result is the chunk minus the rows still pending.
  std::size_t EvalBoolBatch(const uint8_t* rows, std::size_t stride,
                            const Schema& schema, uint32_t* sel,
                            std::size_t n) const override {
    uint32_t pending[kChunk], trial[kChunk];
    std::size_t kept = 0;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = std::min(kChunk, n - base);
      std::copy(sel + base, sel + base + m, pending);
      std::size_t left = m;
      for (const auto& c : children_) {
        if (left == 0) break;
        std::copy(pending, pending + left, trial);
        const std::size_t hit =
            c->EvalBoolBatch(rows, stride, schema, trial, left);
        left = SelectMinus(pending, left, trial, hit, pending);
      }
      kept += SelectMinus(sel + base, m, pending, left, sel + kept);
    }
    return kept;
  }

  std::string Canonical() const override {
    std::string out = "or(";
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i) out += ",";
      out += children_[i]->Canonical();
    }
    return out + ")";
  }

 private:
  std::vector<ExprRef> children_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprRef child)
      : Expr(Kind::kNot, ValueType::kInt64), child_(std::move(child)) {}

  bool EvalBool(TupleRef row) const override { return !child_->EvalBool(row); }
  double EvalDouble(TupleRef row) const override {
    return EvalBool(row) ? 1.0 : 0.0;
  }
  int64_t EvalInt64(TupleRef row) const override {
    return EvalBool(row) ? 1 : 0;
  }

  std::size_t EvalBoolBatch(const uint8_t* rows, std::size_t stride,
                            const Schema& schema, uint32_t* sel,
                            std::size_t n) const override {
    uint32_t trial[kChunk];
    std::size_t kept = 0;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = std::min(kChunk, n - base);
      std::copy(sel + base, sel + base + m, trial);
      const std::size_t hit =
          child_->EvalBoolBatch(rows, stride, schema, trial, m);
      kept += SelectMinus(sel + base, m, trial, hit, sel + kept);
    }
    return kept;
  }

  std::string Canonical() const override {
    return "not(" + child_->Canonical() + ")";
  }

 private:
  ExprRef child_;
};

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprRef lhs, ExprRef rhs, ValueType out)
      : Expr(Kind::kArith, out),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  double EvalDouble(TupleRef row) const override {
    double l = lhs_->EvalDouble(row), r = rhs_->EvalDouble(row);
    switch (op_) {
      case ArithOp::kAdd:
        return l + r;
      case ArithOp::kSub:
        return l - r;
      case ArithOp::kMul:
        return l * r;
      case ArithOp::kDiv:
        return l / r;
      case ArithOp::kMod:
        return std::fmod(l, r);
    }
    return 0;
  }

  /// Left operand straight into `out`, right operand chunk by chunk into
  /// a stack buffer, then one elementwise loop — the same double
  /// arithmetic as EvalDouble, row for row.
  void EvalDoubleBatch(const uint8_t* rows, std::size_t stride,
                       std::size_t n, const Schema& schema,
                       double* out) const override {
    lhs_->EvalDoubleBatch(rows, stride, n, schema, out);
    double r[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = std::min(kChunk, n - base);
      rhs_->EvalDoubleBatch(rows + base * stride, stride, m, schema, r);
      double* o = out + base;
      switch (op_) {
        case ArithOp::kAdd:
          for (std::size_t i = 0; i < m; ++i) o[i] = o[i] + r[i];
          break;
        case ArithOp::kSub:
          for (std::size_t i = 0; i < m; ++i) o[i] = o[i] - r[i];
          break;
        case ArithOp::kMul:
          for (std::size_t i = 0; i < m; ++i) o[i] = o[i] * r[i];
          break;
        case ArithOp::kDiv:
          for (std::size_t i = 0; i < m; ++i) o[i] = o[i] / r[i];
          break;
        case ArithOp::kMod:
          for (std::size_t i = 0; i < m; ++i) o[i] = std::fmod(o[i], r[i]);
          break;
      }
    }
  }

  int64_t EvalInt64(TupleRef row) const override {
    if (output_type() == ValueType::kDouble) {
      return static_cast<int64_t>(EvalDouble(row));
    }
    int64_t l = lhs_->EvalInt64(row), r = rhs_->EvalInt64(row);
    switch (op_) {
      case ArithOp::kAdd:
        return l + r;
      case ArithOp::kSub:
        return l - r;
      case ArithOp::kMul:
        return l * r;
      case ArithOp::kDiv:
        SHARING_DCHECK(r != 0);
        return l / r;
      case ArithOp::kMod:
        SHARING_DCHECK(r != 0);
        return l % r;
    }
    return 0;
  }

  std::string Canonical() const override {
    std::string out = "(";
    out += lhs_->Canonical();
    out += ArithOpToString(op_);
    out += rhs_->Canonical();
    out += ")";
    return out;
  }

 private:
  ArithOp op_;
  ExprRef lhs_, rhs_;
};

}  // namespace

ExprRef Col(std::size_t index, ValueType type) {
  return std::make_shared<ColumnExpr>(index, type);
}

ExprRef ColNamed(const Schema& schema, const std::string& name) {
  auto idx_or = schema.ColumnIndex(name);
  SHARING_CHECK(idx_or.ok()) << idx_or.status().ToString();
  std::size_t idx = idx_or.value();
  return Col(idx, schema.column(idx).type);
}

ExprRef Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }

ExprRef Cmp(CmpOp op, ExprRef lhs, ExprRef rhs) {
  bool ls = lhs->output_type() == ValueType::kString;
  bool rs = rhs->output_type() == ValueType::kString;
  SHARING_CHECK(ls == rs) << "comparison between string and non-string";
  auto mode = ls ? CompareExpr::Mode::kString : CompareExpr::Mode::kNumeric;
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs),
                                       mode);
}

ExprRef Between(ExprRef e, Value lo, Value hi) {
  // Bind the copy explicitly: evaluation order of function arguments is
  // unspecified, so `e` must not be moved in the same call that copies it.
  ExprRef lower = Cmp(CmpOp::kGe, e, Lit(std::move(lo)));
  ExprRef upper = Cmp(CmpOp::kLe, std::move(e), Lit(std::move(hi)));
  return And(std::move(lower), std::move(upper));
}

ExprRef And(std::vector<ExprRef> children) {
  SHARING_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  return std::make_shared<AndExpr>(std::move(children));
}

ExprRef And(ExprRef a, ExprRef b) {
  return And(std::vector<ExprRef>{std::move(a), std::move(b)});
}

ExprRef Or(std::vector<ExprRef> children) {
  SHARING_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  return std::make_shared<OrExpr>(std::move(children));
}

ExprRef Or(ExprRef a, ExprRef b) {
  return Or(std::vector<ExprRef>{std::move(a), std::move(b)});
}

ExprRef Not(ExprRef e) { return std::make_shared<NotExpr>(std::move(e)); }

ExprRef Arith(ArithOp op, ExprRef lhs, ExprRef rhs) {
  SHARING_CHECK(lhs->output_type() != ValueType::kString &&
                rhs->output_type() != ValueType::kString)
      << "arithmetic on strings";
  ValueType out = (lhs->output_type() == ValueType::kDouble ||
                   rhs->output_type() == ValueType::kDouble)
                      ? ValueType::kDouble
                      : ValueType::kInt64;
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs), out);
}

ExprRef TruePredicate() {
  return Cmp(CmpOp::kEq, Lit(int64_t{1}), Lit(int64_t{1}));
}

}  // namespace sharing
