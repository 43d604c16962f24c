#include "expr/arithmetic.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/random.h"

namespace bipie {
namespace {

TEST(ExprTest, LeafEvaluation) {
  std::vector<int64_t> col = {1, 2, 3};
  const int64_t* cols[1] = {col.data()};
  std::vector<int64_t> out(3);

  Expr::Column(0)->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, col);

  Expr::Constant(-7)->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{-7, -7, -7}));
}

TEST(ExprTest, BinaryOps) {
  std::vector<int64_t> a = {10, 20, 30};
  std::vector<int64_t> b = {1, 2, 3};
  const int64_t* cols[2] = {a.data(), b.data()};
  std::vector<int64_t> out(3);

  Expr::Add(Expr::Column(0), Expr::Column(1))->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{11, 22, 33}));

  Expr::Sub(Expr::Column(0), Expr::Column(1))->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{9, 18, 27}));

  Expr::Mul(Expr::Column(0), Expr::Column(1))->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{10, 40, 90}));
}

TEST(ExprTest, ConstantRhsFastPath) {
  std::vector<int64_t> a = {5, 6, 7};
  const int64_t* cols[1] = {a.data()};
  std::vector<int64_t> out(3);
  Expr::Mul(Expr::Column(0), Expr::Constant(100))
      ->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{500, 600, 700}));
}

TEST(ExprTest, ConstantLhs) {
  std::vector<int64_t> a = {5, 6, 7};
  const int64_t* cols[1] = {a.data()};
  std::vector<int64_t> out(3);
  Expr::Sub(Expr::Constant(100), Expr::Column(0))
      ->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{95, 94, 93}));
}

TEST(ExprTest, Q1ShapedNestedExpression) {
  // price * (100 - disc) * (100 + tax), the Q1 charge expression.
  std::vector<int64_t> price = {10000, 25000};
  std::vector<int64_t> disc = {5, 0};
  std::vector<int64_t> tax = {8, 2};
  const int64_t* cols[3] = {price.data(), disc.data(), tax.data()};
  ExprPtr charge =
      Expr::Mul(Expr::Mul(Expr::Column(0),
                          Expr::Sub(Expr::Constant(100), Expr::Column(1))),
                Expr::Add(Expr::Constant(100), Expr::Column(2)));
  std::vector<int64_t> out(2);
  charge->Evaluate(cols, 2, out.data());
  EXPECT_EQ(out[0], 10000 * 95 * 108);
  EXPECT_EQ(out[1], 25000 * 100 * 102);
}

TEST(ExprTest, FusedMulRangeFormsMatchUnfusedSemantics) {
  // The fused a * (c ± col) fast path must agree with manual evaluation
  // for every operand shape that can feed it.
  Rng rng(77);
  const size_t n = 512;
  std::vector<int64_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextInRange(-500, 500);
    b[i] = rng.NextInRange(-90, 90);
  }
  const int64_t* cols[2] = {a.data(), b.data()};
  struct Case {
    ExprPtr expr;
    std::function<int64_t(int64_t, int64_t)> direct;
  };
  const Case cases[] = {
      // column * (const - col): the Q1 discount factor.
      {Expr::Mul(Expr::Column(0),
                 Expr::Sub(Expr::Constant(100), Expr::Column(1))),
       [](int64_t x, int64_t y) { return x * (100 - y); }},
      // column * (const + col): the Q1 tax factor.
      {Expr::Mul(Expr::Column(0),
                 Expr::Add(Expr::Constant(7), Expr::Column(1))),
       [](int64_t x, int64_t y) { return x * (7 + y); }},
      // nested lhs * (const - col): lhs resolved through recursion first.
      {Expr::Mul(Expr::Add(Expr::Column(0), Expr::Column(1)),
                 Expr::Sub(Expr::Constant(-3), Expr::Column(1))),
       [](int64_t x, int64_t y) { return (x + y) * (-3 - y); }},
  };
  std::vector<int64_t> out(n);
  for (const Case& c : cases) {
    c.expr->Evaluate(cols, n, out.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], c.direct(a[i], b[i])) << i;
    }
  }
}

TEST(ExprTest, RandomizedAgainstDirectComputation) {
  Rng rng(12);
  const size_t n = 2000;
  std::vector<int64_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextInRange(-1000, 1000);
    b[i] = rng.NextInRange(-1000, 1000);
  }
  const int64_t* cols[2] = {a.data(), b.data()};
  ExprPtr e = Expr::Add(Expr::Mul(Expr::Column(0), Expr::Column(1)),
                        Expr::Sub(Expr::Column(0), Expr::Constant(3)));
  std::vector<int64_t> out(n);
  e->Evaluate(cols, n, out.data());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], a[i] * b[i] + (a[i] - 3));
  }
}

TEST(ExprTest, CollectColumnsDeduplicates) {
  ExprPtr e = Expr::Mul(Expr::Add(Expr::Column(2), Expr::Column(0)),
                        Expr::Sub(Expr::Column(2), Expr::Constant(1)));
  std::vector<int> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<int>{2, 0}));
}

TEST(ExprTest, ReferenceReportsOverflowOnSelectedRowsOnly) {
  const int64_t big = int64_t{1} << 40;
  std::vector<int64_t> a = {3, big, 5};
  const int64_t* cols[1] = {a.data()};
  std::vector<int64_t> out(3);
  const ExprPtr square = Expr::Mul(Expr::Column(0), Expr::Column(0));
  EXPECT_EQ(square->Evaluate(cols, 3, out.data()).code(),
            StatusCode::kOverflowRisk);
  const uint8_t sel[3] = {0xFF, 0x00, 0xFF};
  ASSERT_TRUE(square->Evaluate(cols, 3, out.data(), sel).ok());
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[2], 25);
}

// Q1's two expressions over price in [0, 2^24), discount in [0, 10] and
// tax in [0, 8], compiled into one program.
struct Q1Program {
  ExprProgram program;
  int disc_price = -1;
  int charge = -1;

  explicit Q1Program(bool int32_ok) {
    const std::vector<ValueBounds> bounds = {
        {0, (int64_t{1} << 24) - 1}, {0, 10}, {0, 8}};
    // Two separately built trees: the program shares the product.
    auto product = [] {
      return Expr::Mul(Expr::Column(0),
                       Expr::Sub(Expr::Constant(100), Expr::Column(1)));
    };
    disc_price = program.Add(*product(), bounds);
    charge = program.Add(
        *Expr::Mul(product(), Expr::Add(Expr::Constant(100), Expr::Column(2))),
        bounds);
    program.MarkRoot(disc_price, int32_ok);
    program.MarkRoot(charge, int32_ok);
    program.Finalize();
  }
};

TEST(ExprProgramTest, TypesNodesByProvenBounds) {
  Q1Program q1(/*int32_ok=*/true);
  EXPECT_EQ(q1.program.type(q1.disc_price), ExprProgram::Type::kInt32);
  EXPECT_EQ(q1.program.type(q1.charge), ExprProgram::Type::kInt64);
  EXPECT_EQ(q1.program.root_bytes(q1.disc_price), 4);
  EXPECT_EQ(q1.program.root_bytes(q1.charge), 8);
  EXPECT_EQ(q1.program.leaf_columns(), (std::vector<int>{0, 1, 2}));
  // A consumer that needs int64 values widens the root itself.
  Q1Program wide(/*int32_ok=*/false);
  EXPECT_EQ(wide.program.type(wide.disc_price), ExprProgram::Type::kInt64);

  ExprProgram unbounded;
  const int square = unbounded.Add(
      *Expr::Mul(Expr::Column(0), Expr::Column(0)), {{0, int64_t{1} << 40}});
  unbounded.MarkRoot(square, true);
  unbounded.Finalize();
  EXPECT_FALSE(unbounded.bounded(square));
  EXPECT_EQ(unbounded.type(square), ExprProgram::Type::kChecked);
}

TEST(ExprProgramTest, StructurallyEqualSubtreesAreOneNode) {
  Q1Program q1(/*int32_ok=*/true);
  ExprProgram again;
  const std::vector<ValueBounds> bounds = {{0, 100}, {0, 10}, {0, 8}};
  const int first = again.Add(
      *Expr::Add(Expr::Column(0), Expr::Constant(7)), bounds);
  const int second = again.Add(
      *Expr::Add(Expr::Column(0), Expr::Constant(7)), bounds);
  EXPECT_EQ(first, second);
  // disc_price is charge's left operand, not a copy of it: besides the two
  // roots, only the three leaves, (100 - disc) and (100 + tax) need slices.
  EXPECT_EQ(q1.program.num_roots(), 2u);
  EXPECT_EQ(q1.program.scratch_bytes(),
            5 * ExprProgram::kSliceRows * sizeof(int64_t));
}

TEST(ExprProgramTest, RunMatchesReferenceAcrossWordsAndSlices) {
  // Leaves read frame-of-reference offsets of every word width; 1500 rows
  // span three slices, the last one partial.
  Rng rng(5);
  const size_t n = 1500;
  const int64_t base = 250;
  std::vector<int64_t> price(n), disc(n), tax(n);
  AlignedBuffer price_words(n * 4), disc_words(n * 1), tax_words(n * 8);
  for (size_t i = 0; i < n; ++i) {
    price[i] = base + rng.NextInRange(0, (int64_t{1} << 24) - 1 - base);
    disc[i] = rng.NextInRange(0, 10);
    tax[i] = rng.NextInRange(0, 8);
    price_words.data_as<uint32_t>()[i] = static_cast<uint32_t>(price[i] - base);
    disc_words.data()[i] = static_cast<uint8_t>(disc[i]);
    tax_words.data_as<uint64_t>()[i] = static_cast<uint64_t>(tax[i]);
  }
  for (const bool int32_ok : {true, false}) {
    Q1Program q1(int32_ok);
    const ExprProgram& program = q1.program;
    const ExprProgram::Leaf leaves[3] = {
        {price_words.data(), 4, base}, {disc_words.data(), 1, 0},
        {tax_words.data(), 8, 0}};
    AlignedBuffer roots[2] = {AlignedBuffer(n * 8), AlignedBuffer(n * 8)};
    void* root_ptrs[2] = {roots[0].data(), roots[1].data()};
    AlignedBuffer scratch(program.scratch_bytes());
    ASSERT_TRUE(
        program.Run(leaves, n, nullptr, root_ptrs, scratch.data()).ok());
    const void* dp = root_ptrs[program.root_index(q1.disc_price)];
    const auto* charge = static_cast<const int64_t*>(
        root_ptrs[program.root_index(q1.charge)]);
    for (size_t i = 0; i < n; ++i) {
      const int64_t want = price[i] * (100 - disc[i]);
      const int64_t got = int32_ok ? static_cast<const int32_t*>(dp)[i]
                                   : static_cast<const int64_t*>(dp)[i];
      ASSERT_EQ(got, want) << i;
      ASSERT_EQ(charge[i], want * (100 + tax[i])) << i;
    }
  }
}

TEST(ExprProgramTest, CheckedNodesFailOnSelectedRowsOnly) {
  ExprProgram program;
  const int square = program.Add(
      *Expr::Mul(Expr::Column(0), Expr::Column(0)), {{0, int64_t{1} << 40}});
  program.MarkRoot(square, true);
  program.Finalize();
  const uint64_t values[3] = {3, uint64_t{1} << 40, 5};
  const ExprProgram::Leaf leaf = {values, 8, 0};
  int64_t out[3];
  void* roots[1] = {out};
  AlignedBuffer scratch(program.scratch_bytes());
  EXPECT_EQ(program.Run(&leaf, 3, nullptr, roots, scratch.data()).code(),
            StatusCode::kOverflowRisk);
  const uint8_t mask[3] = {0xFF, 0x00, 0xFF};
  ASSERT_TRUE(program.Run(&leaf, 3, mask, roots, scratch.data()).ok());
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[2], 25);
}

// The program's interval arithmetic: the interval of `expr` over columns
// with `bounds`, or nothing when some intermediate can leave int64.
std::optional<ValueBounds> Interval(ExprPtr expr,
                                    const std::vector<ValueBounds>& bounds) {
  ExprProgram program;
  const int node = program.Add(*expr, bounds);
  if (!program.bounded(node)) return std::nullopt;
  return program.bounds(node);
}

TEST(ExprBoundsTest, PropagatesIntervals) {
  std::vector<ValueBounds> bounds = {{-10, 20}, {0, 5}};
  auto r = Interval(Expr::Add(Expr::Column(0), Expr::Column(1)), bounds);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->min, -10);
  EXPECT_EQ(r->max, 25);

  r = Interval(Expr::Sub(Expr::Column(0), Expr::Column(1)), bounds);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->min, -15);
  EXPECT_EQ(r->max, 20);

  r = Interval(Expr::Mul(Expr::Column(0), Expr::Column(1)), bounds);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->min, -50);
  EXPECT_EQ(r->max, 100);
}

TEST(ExprBoundsTest, MulOfNegativesFlipsSign) {
  std::vector<ValueBounds> bounds = {{-10, -2}, {-5, -1}};
  auto r = Interval(Expr::Mul(Expr::Column(0), Expr::Column(1)), bounds);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->min, 2);
  EXPECT_EQ(r->max, 50);
}

TEST(ExprBoundsTest, DetectsOverflowRisk) {
  const int64_t big = std::numeric_limits<int64_t>::max() / 2;
  std::vector<ValueBounds> bounds = {{0, big}, {0, big}};
  EXPECT_FALSE(
      Interval(Expr::Mul(Expr::Column(0), Expr::Column(1)), bounds)
          .has_value());
  // An unbounded operand leaves its users unbounded too.
  EXPECT_FALSE(Interval(Expr::Sub(Expr::Mul(Expr::Column(0), Expr::Column(1)),
                                  Expr::Mul(Expr::Column(0), Expr::Column(1))),
                        bounds)
                   .has_value());
}

}  // namespace
}  // namespace bipie
