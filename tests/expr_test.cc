// Unit tests for the expression library: evaluation semantics and the
// canonical forms SP matching depends on.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "exec/expr.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace sharing {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest()
      : schema_({Column::Int64("i"), Column::Double("d"),
                 Column::DateCol("t"), Column::String("s", 8)}),
        row_(schema_.row_width()) {
    RowWriter w(row_.data(), &schema_);
    w.SetInt64(0, 10)
        .SetDouble(1, 2.5)
        .SetDate(2, MakeDate(1994, 3, 15))
        .SetString(3, "BRAND");
  }

  TupleRef Row() const { return TupleRef(row_.data(), &schema_); }

  ExprRef IntCol() const { return Col(0, ValueType::kInt64); }
  ExprRef DblCol() const { return Col(1, ValueType::kDouble); }
  ExprRef DateCol() const { return Col(2, ValueType::kDate); }
  ExprRef StrCol() const { return Col(3, ValueType::kString); }

  Schema schema_;
  std::vector<uint8_t> row_;
};

TEST_F(ExprTest, ColumnEval) {
  EXPECT_EQ(IntCol()->EvalInt64(Row()), 10);
  EXPECT_DOUBLE_EQ(DblCol()->EvalDouble(Row()), 2.5);
  EXPECT_EQ(StrCol()->EvalString(Row()), "BRAND");
}

TEST_F(ExprTest, LiteralEval) {
  EXPECT_EQ(Lit(int64_t{7})->EvalInt64(Row()), 7);
  EXPECT_DOUBLE_EQ(Lit(3.25)->EvalDouble(Row()), 3.25);
  EXPECT_EQ(Lit("xyz")->EvalString(Row()), "xyz");
}

TEST_F(ExprTest, IntComparisonIsExact) {
  EXPECT_TRUE(Cmp(CmpOp::kEq, IntCol(), Lit(int64_t{10}))->EvalBool(Row()));
  EXPECT_FALSE(Cmp(CmpOp::kLt, IntCol(), Lit(int64_t{10}))->EvalBool(Row()));
  EXPECT_TRUE(Cmp(CmpOp::kLe, IntCol(), Lit(int64_t{10}))->EvalBool(Row()));
  EXPECT_TRUE(Cmp(CmpOp::kNe, IntCol(), Lit(int64_t{11}))->EvalBool(Row()));
}

TEST_F(ExprTest, MixedNumericComparisonUsesDouble) {
  // 10 (int) > 2.5 (double)
  EXPECT_TRUE(Cmp(CmpOp::kGt, IntCol(), DblCol())->EvalBool(Row()));
}

TEST_F(ExprTest, DateComparison) {
  EXPECT_TRUE(
      Cmp(CmpOp::kGe, DateCol(), Lit(MakeDate(1994, 1, 1)))->EvalBool(Row()));
  EXPECT_FALSE(
      Cmp(CmpOp::kGt, DateCol(), Lit(MakeDate(1998, 1, 1)))->EvalBool(Row()));
}

TEST_F(ExprTest, StringComparisonTrimsPadding) {
  // The stored field is "BRAND   " (padded to 8); comparison must use the
  // trimmed value.
  EXPECT_TRUE(Cmp(CmpOp::kEq, StrCol(), Lit("BRAND"))->EvalBool(Row()));
  EXPECT_TRUE(Cmp(CmpOp::kLt, StrCol(), Lit("CANDY"))->EvalBool(Row()));
}

TEST_F(ExprTest, BetweenInclusive) {
  EXPECT_TRUE(
      Between(IntCol(), int64_t{10}, int64_t{20})->EvalBool(Row()));
  EXPECT_TRUE(
      Between(IntCol(), int64_t{5}, int64_t{10})->EvalBool(Row()));
  EXPECT_FALSE(
      Between(IntCol(), int64_t{11}, int64_t{20})->EvalBool(Row()));
}

TEST_F(ExprTest, LogicalConnectives) {
  ExprRef t = Cmp(CmpOp::kEq, IntCol(), Lit(int64_t{10}));
  ExprRef f = Cmp(CmpOp::kEq, IntCol(), Lit(int64_t{11}));
  EXPECT_TRUE(And(t, t)->EvalBool(Row()));
  EXPECT_FALSE(And(t, f)->EvalBool(Row()));
  EXPECT_TRUE(Or(f, t)->EvalBool(Row()));
  EXPECT_FALSE(Or(f, f)->EvalBool(Row()));
  EXPECT_TRUE(Not(f)->EvalBool(Row()));
}

TEST_F(ExprTest, ArithInt) {
  EXPECT_EQ(Arith(ArithOp::kAdd, IntCol(), Lit(int64_t{5}))->EvalInt64(Row()),
            15);
  EXPECT_EQ(Arith(ArithOp::kSub, IntCol(), Lit(int64_t{5}))->EvalInt64(Row()),
            5);
  EXPECT_EQ(Arith(ArithOp::kMul, IntCol(), Lit(int64_t{5}))->EvalInt64(Row()),
            50);
  EXPECT_EQ(Arith(ArithOp::kDiv, IntCol(), Lit(int64_t{3}))->EvalInt64(Row()),
            3);
  EXPECT_EQ(Arith(ArithOp::kMod, IntCol(), Lit(int64_t{3}))->EvalInt64(Row()),
            1);
}

TEST_F(ExprTest, ArithDoublePropagates) {
  ExprRef e = Arith(ArithOp::kMul, DblCol(), Lit(int64_t{4}));
  EXPECT_EQ(e->output_type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(e->EvalDouble(Row()), 10.0);
}

TEST_F(ExprTest, Q1StyleExpression) {
  // extprice * (1 - discount) with extprice=2.5(col d), discount=0.0...
  ExprRef e = Arith(ArithOp::kMul, DblCol(),
                    Arith(ArithOp::kSub, Lit(1.0), Lit(0.2)));
  EXPECT_NEAR(e->EvalDouble(Row()), 2.0, 1e-12);
}

TEST_F(ExprTest, TruePredicateAlwaysTrue) {
  EXPECT_TRUE(TruePredicate()->EvalBool(Row()));
}

// ---------------------------------------------------------------------------
// Canonical forms: identical expressions render identically; different
// ones differ (the SP-matching contract).
// ---------------------------------------------------------------------------

TEST_F(ExprTest, CanonicalStableAcrossInstances) {
  auto make = [&] {
    return And(Cmp(CmpOp::kGe, IntCol(), Lit(int64_t{3})),
               Cmp(CmpOp::kLt, DblCol(), Lit(9.5)));
  };
  EXPECT_EQ(make()->Canonical(), make()->Canonical());
}

TEST_F(ExprTest, CanonicalDistinguishesOps) {
  EXPECT_NE(Cmp(CmpOp::kLt, IntCol(), Lit(int64_t{3}))->Canonical(),
            Cmp(CmpOp::kLe, IntCol(), Lit(int64_t{3}))->Canonical());
}

TEST_F(ExprTest, CanonicalDistinguishesLiterals) {
  EXPECT_NE(Cmp(CmpOp::kLt, IntCol(), Lit(int64_t{3}))->Canonical(),
            Cmp(CmpOp::kLt, IntCol(), Lit(int64_t{4}))->Canonical());
}

TEST_F(ExprTest, CanonicalDistinguishesColumns) {
  EXPECT_NE(Cmp(CmpOp::kLt, IntCol(), Lit(int64_t{3}))->Canonical(),
            Cmp(CmpOp::kLt, Col(5, ValueType::kInt64), Lit(int64_t{3}))
                ->Canonical());
}

TEST_F(ExprTest, CanonicalRendersStructure) {
  ExprRef e = And(Cmp(CmpOp::kEq, IntCol(), Lit(int64_t{1})),
                  Not(Cmp(CmpOp::kGt, DblCol(), Lit(2.0))));
  EXPECT_EQ(e->Canonical(), "and((c0==1),not((c1>2)))");
}

TEST_F(ExprTest, ColNamedResolvesByName) {
  ExprRef e = ColNamed(schema_, "d");
  EXPECT_DOUBLE_EQ(e->EvalDouble(Row()), 2.5);
}

// ---------------------------------------------------------------------------
// Page-at-a-time evaluation: every batched result must be bit-identical to
// the per-row Eval* result (the operators use the former, the reference
// executor the latter).
// ---------------------------------------------------------------------------

class ExprBatchTest : public ::testing::Test {
 protected:
  // More rows than one internal chunk, and an odd row width (43 bytes,
  // led by a 1-byte string) so every numeric load is unaligned.
  static constexpr std::size_t kRows = 1301;

  ExprBatchTest()
      : schema_({Column::String("p", 1), Column::Int64("i"),
                 Column::Double("d"), Column::DateCol("t"),
                 Column::String("s", 6), Column::Int64("k"),
                 Column::Double("e")}),
        page_(kRows * schema_.row_width()) {
    const char* words[] = {"", "A", "AB", "ABC", "B", "ZZZZZZ", "AB  C"};
    for (std::size_t r = 0; r < kRows; ++r) {
      const int64_t x = static_cast<int64_t>(r * 2654435761u % 2001) - 1000;
      double d = static_cast<double>(x) * 0.37;
      if (r % 97 == 0) d = std::numeric_limits<double>::quiet_NaN();
      if (r % 89 == 0) d = -0.0;
      RowWriter(page_.data() + r * schema_.row_width(), &schema_)
          .SetString(0, r % 2 ? "X" : "Y")
          .SetInt64(1, x)
          .SetDouble(2, d)
          .SetDate(3, Date{static_cast<int32_t>(8000 + x)})
          .SetString(4, words[r % 7])
          .SetInt64(5, (x % 13 == 0) ? 7 : x % 13)  // never zero
          .SetDouble(6, 1.0 + static_cast<double>(r % 5) * 0.25);
    }
  }

  std::size_t stride() const { return schema_.row_width(); }
  TupleRef Row(std::size_t r) const {
    return TupleRef(page_.data() + r * stride(), &schema_);
  }

  ExprRef I() const { return Col(1, ValueType::kInt64); }
  ExprRef D() const { return Col(2, ValueType::kDouble); }
  ExprRef T() const { return Col(3, ValueType::kDate); }
  ExprRef S() const { return Col(4, ValueType::kString); }
  ExprRef K() const { return Col(5, ValueType::kInt64); }
  ExprRef E() const { return Col(6, ValueType::kDouble); }

  void ExpectDoubleBatchMatchesRows(const ExprRef& e) const {
    std::vector<double> got(kRows);
    e->EvalDoubleBatch(page_.data(), stride(), kRows, schema_, got.data());
    for (std::size_t r = 0; r < kRows; ++r) {
      const double want = e->EvalDouble(Row(r));
      ASSERT_EQ(std::memcmp(&want, &got[r], sizeof(double)), 0)
          << e->Canonical() << " row " << r << ": " << want << " vs "
          << got[r];
    }
  }

  /// Over the full selection and over a sparse one (every third row).
  void ExpectBoolBatchMatchesRows(const ExprRef& e) const {
    for (std::size_t step : {1, 3}) {
      std::vector<uint32_t> sel, want;
      for (std::size_t r = 0; r < kRows; r += step) {
        sel.push_back(static_cast<uint32_t>(r));
        if (e->EvalBool(Row(r))) want.push_back(static_cast<uint32_t>(r));
      }
      sel.resize(
          e->EvalBoolBatch(page_.data(), stride(), schema_, sel.data(),
                           sel.size()));
      EXPECT_EQ(sel, want) << e->Canonical() << " step " << step;
    }
  }

  Schema schema_;
  std::vector<uint8_t> page_;
};

TEST_F(ExprBatchTest, ColumnOfEveryNumericType) {
  ExpectDoubleBatchMatchesRows(I());
  ExpectDoubleBatchMatchesRows(D());
  ExpectDoubleBatchMatchesRows(T());
  ExpectDoubleBatchMatchesRows(E());
}

TEST_F(ExprBatchTest, Literal) {
  ExpectDoubleBatchMatchesRows(Lit(int64_t{-42}));
  ExpectDoubleBatchMatchesRows(Lit(0.1));
  ExpectDoubleBatchMatchesRows(Lit(MakeDate(1995, 6, 17)));
}

TEST_F(ExprBatchTest, ArithIntAndDoubleEveryOp) {
  for (ArithOp op : {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                     ArithOp::kDiv, ArithOp::kMod}) {
    ExpectDoubleBatchMatchesRows(Arith(op, I(), K()));         // int
    ExpectDoubleBatchMatchesRows(Arith(op, I(), Lit(int64_t{3})));
    ExpectDoubleBatchMatchesRows(Arith(op, D(), E()));         // double
    ExpectDoubleBatchMatchesRows(Arith(op, Lit(1.5), D()));
    ExpectDoubleBatchMatchesRows(Arith(op, T(), K()));         // date
  }
  // Q1's nested charge expression: price * (1 - disc) * (1 + tax).
  ExpectDoubleBatchMatchesRows(
      Arith(ArithOp::kMul,
            Arith(ArithOp::kMul, D(), Arith(ArithOp::kSub, Lit(1.0), E())),
            Arith(ArithOp::kAdd, Lit(1.0), E())));
}

TEST_F(ExprBatchTest, NumericCompareEveryOp) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    ExpectBoolBatchMatchesRows(Cmp(op, I(), Lit(int64_t{17})));  // int
    ExpectBoolBatchMatchesRows(Cmp(op, Lit(int64_t{0}), K()));
    ExpectBoolBatchMatchesRows(Cmp(op, D(), Lit(-3.7)));  // double, NaNs
    ExpectBoolBatchMatchesRows(Cmp(op, I(), D()));        // mixed
    ExpectBoolBatchMatchesRows(Cmp(op, D(), D()));
    ExpectBoolBatchMatchesRows(
        Cmp(op, Arith(ArithOp::kMod, I(), K()), Lit(int64_t{2})));
  }
}

TEST_F(ExprBatchTest, DateCompare) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kLt, CmpOp::kGe}) {
    ExpectBoolBatchMatchesRows(Cmp(op, T(), Lit(Date{8123})));
    ExpectBoolBatchMatchesRows(Cmp(op, T(), T()));
  }
  ExpectBoolBatchMatchesRows(
      Between(T(), Value(Date{7500}), Value(Date{8500})));
}

TEST_F(ExprBatchTest, StringCompare) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    ExpectBoolBatchMatchesRows(Cmp(op, S(), Lit("AB")));
    ExpectBoolBatchMatchesRows(Cmp(op, Lit("B"), S()));
    ExpectBoolBatchMatchesRows(
        Cmp(op, S(), Col(0, ValueType::kString)));  // column vs column
  }
}

TEST_F(ExprBatchTest, AndOrNot) {
  ExprRef a = Cmp(CmpOp::kGt, I(), Lit(int64_t{-300}));
  ExprRef b = Cmp(CmpOp::kLt, D(), Lit(150.0));
  ExprRef c = Cmp(CmpOp::kEq, S(), Lit("ABC"));
  ExpectBoolBatchMatchesRows(And(a, b));
  ExpectBoolBatchMatchesRows(And({a, b, c}));
  ExpectBoolBatchMatchesRows(Or(b, c));
  ExpectBoolBatchMatchesRows(Or({c, Not(a), b}));
  ExpectBoolBatchMatchesRows(Not(b));
  ExpectBoolBatchMatchesRows(Not(And(a, Or(b, c))));
  ExpectBoolBatchMatchesRows(And(Or(a, c), Not(Or(b, c))));
  ExpectBoolBatchMatchesRows(TruePredicate());
}

TEST_F(ExprBatchTest, NonPredicateAsBooleanUsesDefault) {
  // Columns and arithmetic used as predicates (non-zero is true) take
  // the default EvalBoolBatch; compares over them take the per-row
  // operand fallback.
  ExpectBoolBatchMatchesRows(K());
  ExpectBoolBatchMatchesRows(Arith(ArithOp::kMod, I(), Lit(int64_t{4})));
  ExpectDoubleBatchMatchesRows(Cmp(CmpOp::kLt, I(), K()));
}

TEST_F(ExprBatchTest, EmptyBatchesAreNoOps) {
  uint32_t sel[1] = {7};
  ExprRef pred = And(Cmp(CmpOp::kGt, I(), Lit(int64_t{0})),
                     Not(Cmp(CmpOp::kEq, S(), Lit("A"))));
  EXPECT_EQ(pred->EvalBoolBatch(page_.data(), stride(), schema_, sel, 0), 0u);
  EXPECT_EQ(sel[0], 7u);
  double out[1] = {42.0};
  Arith(ArithOp::kAdd, D(), E())->EvalDoubleBatch(page_.data(), stride(), 0,
                                                  schema_, out);
  EXPECT_EQ(out[0], 42.0);
}

}  // namespace
}  // namespace sharing
