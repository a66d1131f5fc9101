// Expression trees: predicates and arithmetic over packed rows.
//
// Expressions are immutable, shared, and carry a *canonical form* string.
// Canonical forms are the basis of SP's common-sub-plan detection: two scan
// packets share work iff their plans — including every predicate — render
// to the same canonical string (the paper: SP "is limited to common
// sub-plans with identical predicates").
//
// Evaluation has two granularities over the same tree:
//  * Page-at-a-time (EvalDoubleBatch/EvalBoolBatch): one virtual call per
//    node per page. Leaves load a whole strided column into a buffer and
//    interior nodes run one tight loop over their children's buffers, so
//    the per-row cost is arithmetic, not dispatch. The query-centric
//    operators (scan filter, aggregate inputs) use only this path.
//  * Per-row (EvalBool/EvalDouble/EvalInt64/EvalString): virtual dispatch
//    per tuple with unboxed results. The ReferenceExecutor test oracle,
//    CJOIN's dimension/fact filters and the batch defaults use it.
// Both produce bit-identical results (tests/expr_test.cc). Boxing via
// Value is reserved for plan construction and tests.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/tuple.h"

namespace sharing {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };

std::string_view CmpOpToString(CmpOp op);
std::string_view ArithOpToString(ArithOp op);

class Expr;
using ExprRef = std::shared_ptr<const Expr>;

class Expr {
 public:
  enum class Kind {
    kColumn,
    kLiteral,
    kCompare,
    kAnd,
    kOr,
    kNot,
    kArith,
  };

  virtual ~Expr() = default;

  Kind kind() const { return kind_; }

  /// Type of the expression's result. Boolean expressions report kInt64
  /// (0/1).
  ValueType output_type() const { return output_type_; }

  /// Numeric evaluation. Valid when output_type is kInt64/kDouble/kDate.
  virtual double EvalDouble(TupleRef row) const = 0;
  virtual int64_t EvalInt64(TupleRef row) const = 0;

  /// Boolean evaluation. Valid for predicates (kCompare/kAnd/kOr/kNot).
  virtual bool EvalBool(TupleRef row) const;

  /// String evaluation. Valid when output_type is kString.
  virtual std::string_view EvalString(TupleRef row) const;

  /// Page-at-a-time EvalDouble over `n` packed rows laid out `stride`
  /// bytes apart from `rows`: out[i] is EvalDouble of row i, bit for bit.
  /// The default loops over EvalDouble.
  virtual void EvalDoubleBatch(const uint8_t* rows, std::size_t stride,
                               std::size_t n, const Schema& schema,
                               double* out) const;

  /// Page-at-a-time EvalBool over a selection vector: `sel[0, n)` holds
  /// ascending row indices into `rows` (rows are `stride` bytes apart).
  /// Keeps, in order, exactly the entries whose row satisfies EvalBool and
  /// returns how many remain. Rows outside the selection are never
  /// evaluated. The default loops over EvalBool.
  virtual std::size_t EvalBoolBatch(const uint8_t* rows, std::size_t stride,
                                    const Schema& schema, uint32_t* sel,
                                    std::size_t n) const;

  /// Stable canonical rendering; equal strings <=> identical expressions.
  virtual std::string Canonical() const = 0;

 protected:
  Expr(Kind kind, ValueType output_type)
      : kind_(kind), output_type_(output_type) {}

 private:
  Kind kind_;
  ValueType output_type_;
};

// Factory functions (the public construction API).

/// Reference to input column `index` of type `type`.
ExprRef Col(std::size_t index, ValueType type);

/// Convenience: resolves `name` against `schema`.
ExprRef ColNamed(const Schema& schema, const std::string& name);

/// Literal constant.
ExprRef Lit(Value v);
inline ExprRef Lit(int64_t v) { return Lit(Value(v)); }
inline ExprRef Lit(double v) { return Lit(Value(v)); }
inline ExprRef Lit(Date v) { return Lit(Value(v)); }
inline ExprRef Lit(const char* v) { return Lit(Value(std::string(v))); }

/// Comparison. Operand types must be compatible (numeric with numeric,
/// date with date, string with string).
ExprRef Cmp(CmpOp op, ExprRef lhs, ExprRef rhs);

/// lo <= e AND e <= hi.
ExprRef Between(ExprRef e, Value lo, Value hi);

ExprRef And(std::vector<ExprRef> children);
ExprRef And(ExprRef a, ExprRef b);
ExprRef Or(std::vector<ExprRef> children);
ExprRef Or(ExprRef a, ExprRef b);
ExprRef Not(ExprRef e);

/// Arithmetic; result is kDouble if either side is, else kInt64.
ExprRef Arith(ArithOp op, ExprRef lhs, ExprRef rhs);

/// Always-true predicate (scan without filter).
ExprRef TruePredicate();

}  // namespace sharing
