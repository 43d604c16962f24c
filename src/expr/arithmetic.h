// Scalar-expression evaluation over decoded batches.
//
// This layer stands in for MemSQL's LLVM-generated code: per §3 "generated
// functions always operate on decompressed column data", and per §6.3 "the
// code generated at runtime does not use SIMD". bipie keeps both contracts:
// expressions are evaluated by statically compiled scalar loops over decoded
// arrays, one batch at a time, producing decoded outputs that feed the
// aggregation strategies.
//
// The scan compiles a segment's expressions once into an ExprProgram that
// carries interval arithmetic over segment metadata, proving that sums
// cannot overflow int64 — the §2.1 overflow-check elision — and typing
// every node by its proven interval: int32 where the interval fits, int64
// otherwise (a widening multiply over int32 operands), and checked int64
// where no interval can be proven.
#ifndef BIPIE_EXPR_ARITHMETIC_H_
#define BIPIE_EXPR_ARITHMETIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace bipie {

enum class ExprKind { kColumn, kConstant, kAdd, kSub, kMul };

// Inclusive value interval, used for overflow proofs.
struct ValueBounds {
  int64_t min = 0;
  int64_t max = 0;
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// An immutable arithmetic expression tree over table columns.
class Expr {
 public:
  static ExprPtr Column(int column_index);
  static ExprPtr Constant(int64_t value);
  static ExprPtr Add(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Sub(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Mul(ExprPtr lhs, ExprPtr rhs);

  ExprKind kind() const { return kind_; }
  int column_index() const { return column_index_; }
  int64_t constant() const { return constant_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  // All column indices referenced by this tree (deduplicated).
  void CollectColumns(std::vector<int>* out) const;

  // The reference evaluator of the hash and naive engines. columns[idx]
  // must be a decoded int64 array for every referenced column index. Every
  // operation is checked: fails with OverflowRisk if some node overflows
  // int64 on a row that `sel` selects (every row when null). Rows `sel`
  // rejects may hold wrapped values.
  Status Evaluate(const int64_t* const* columns, size_t n, int64_t* out,
                  const uint8_t* sel = nullptr) const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kConstant;
  int column_index_ = -1;
  int64_t constant_ = 0;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

// One segment's aggregate expressions, compiled once and run per batch.
//
// Nodes are hash-consed: structurally equal subtrees are one node, so Q1's
// charge reuses disc_price whether or not the caller shared the tree. Each
// node is typed by its proven interval:
//  * kInt32: the interval and every operand fit int32;
//  * kInt64: bounded, but some operand or the result needs 64 bits (int32
//    operands are widened on load, e.g. a widening multiply);
//  * kChecked: some intermediate's interval leaves int64, so none is
//    proven; int64 with overflow checks, failing the batch on the first
//    selected row that overflows.
// Run evaluates node by node over L1-resident slices of kSliceRows rows;
// roots write their values in place into the caller's output arrays.
class ExprProgram {
 public:
  // Rows per slice: small enough that every intermediate stays in L1,
  // large enough to amortize the per-node dispatch. 512 measured faster
  // than 256 and 1024 on TPC-H Q1.
  static constexpr size_t kSliceRows = 512;

  enum class Type : uint8_t { kInt32, kInt64, kChecked };

  // Where one leaf's values come from in a batch: `data` holds elements of
  // `word_bytes` (1/2/4/8, unsigned), and a leaf value is base + element.
  struct Leaf {
    const void* data = nullptr;
    int word_bytes = 8;
    int64_t base = 0;
  };

  // Adds `expr`'s nodes and returns the index of its top node.
  // column_bounds[c] bounds table column c, for every column `expr` reads.
  int Add(const Expr& expr, const std::vector<ValueBounds>& column_bounds);

  // Node `node` is aggregated. `int32_ok` when its consumer accepts int32
  // values (the multi-aggregate kernel widens them on load); a node marked
  // both ways is int64.
  void MarkRoot(int node, bool int32_ok);

  // Types every node and numbers the roots. Call once, after every Add and
  // MarkRoot.
  void Finalize();

  // Whether every intermediate of `node` stays within int64, and then the
  // interval of its values.
  bool bounded(int node) const { return nodes_[node].bounded; }
  const ValueBounds& bounds(int node) const { return nodes_[node].bounds; }
  Type type(int node) const { return nodes_[node].type; }
  // Bytes per value of a root's output array: 4 for kInt32, else 8.
  int root_bytes(int node) const {
    return nodes_[node].type == Type::kInt32 ? 4 : 8;
  }
  // Root index of a marked node: the slot of Run's `roots` it writes.
  int root_index(int node) const { return nodes_[node].root; }
  size_t num_roots() const { return num_roots_; }
  // Table column read by each leaf, in the order Run's `leaves` follows.
  const std::vector<int>& leaf_columns() const { return leaf_columns_; }
  // Bytes of the slice scratch Run needs.
  size_t scratch_bytes() const {
    return num_slice_nodes_ * kSliceRows * sizeof(int64_t);
  }

  // Evaluates every root over n rows: roots[r] receives n values at
  // root_bytes() each. A checked node overflowing on a row that `mask`
  // selects (every row when null) fails with OverflowRisk.
  Status Run(const Leaf* leaves, size_t n, const uint8_t* mask,
             void* const* roots, void* scratch) const;

 private:
  struct Node {
    ExprKind kind = ExprKind::kConstant;
    int lhs = -1;
    int rhs = -1;
    int column = -1;    // kColumn: table column
    int leaf = -1;      // kColumn: index into leaf_columns_
    int64_t constant = 0;
    bool bounded = true;
    ValueBounds bounds;
    Type type = Type::kInt64;
    bool marked = false;
    bool int32_ok = true;  // every marking accepts int32
    int root = -1;         // marked: index into Run's roots
    int slice = -1;        // unmarked, non-constant: scratch slice index
  };

  std::vector<Node> nodes_;  // operands precede their users
  std::vector<int> leaf_columns_;
  size_t num_roots_ = 0;
  size_t num_slice_nodes_ = 0;
};

}  // namespace bipie

#endif  // BIPIE_EXPR_ARITHMETIC_H_
