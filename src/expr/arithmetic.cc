#include "expr/arithmetic.h"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "common/aligned_buffer.h"
#include "common/macros.h"

namespace bipie {

namespace {

bool FitsInt64(__int128 v) {
  return v >= std::numeric_limits<int64_t>::min() &&
         v <= std::numeric_limits<int64_t>::max();
}

bool FitsInt32(const ValueBounds& b) {
  return b.min >= std::numeric_limits<int32_t>::min() &&
         b.max <= std::numeric_limits<int32_t>::max();
}

// The interval of `lhs kind rhs` for a binary kind; OverflowRisk when it
// can leave int64.
Result<ValueBounds> CombineBounds(ExprKind kind, ValueBounds lhs,
                                  ValueBounds rhs) {
  const __int128 al = lhs.min, ah = lhs.max;
  const __int128 bl = rhs.min, bh = rhs.max;
  __int128 lo, hi;
  switch (kind) {
    case ExprKind::kAdd:
      lo = al + bl;
      hi = ah + bh;
      break;
    case ExprKind::kSub:
      lo = al - bh;
      hi = ah - bl;
      break;
    case ExprKind::kMul: {
      const __int128 candidates[4] = {al * bl, al * bh, ah * bl, ah * bh};
      lo = *std::min_element(candidates, candidates + 4);
      hi = *std::max_element(candidates, candidates + 4);
      break;
    }
    default:
      return Status::Internal("unreachable expr kind");
  }
  if (!FitsInt64(lo) || !FitsInt64(hi)) {
    return Status::OverflowRisk("expression may overflow int64");
  }
  return ValueBounds{static_cast<int64_t>(lo), static_cast<int64_t>(hi)};
}

// Checked int64 operation; true when it overflowed (*out then wraps).
bool CheckedOp(ExprKind kind, int64_t a, int64_t b, int64_t* out) {
  switch (kind) {
    case ExprKind::kAdd:
      return __builtin_add_overflow(a, b, out);
    case ExprKind::kSub:
      return __builtin_sub_overflow(a, b, out);
    default:
      return __builtin_mul_overflow(a, b, out);
  }
}

// --- ExprProgram loops -------------------------------------------------------
// Operand views: an array of T, or a constant. The loops convert each operand
// to the node's type on load, so an int64 node over int32 arrays compiles to
// a widening multiply and an int32 node stays in 32-bit lanes.

template <typename T>
struct Arr {
  const T* p;
  T operator[](size_t i) const { return p[i]; }
};

struct Imm {
  int64_t v;
  int64_t operator[](size_t) const { return v; }
};

template <typename Out, typename A, typename B>
void BinaryLoop(ExprKind kind, A a, B b, size_t n, Out* __restrict out) {
  switch (kind) {
    case ExprKind::kAdd:
      for (size_t i = 0; i < n; ++i) {
        out[i] = static_cast<Out>(static_cast<Out>(a[i]) +
                                  static_cast<Out>(b[i]));
      }
      return;
    case ExprKind::kSub:
      for (size_t i = 0; i < n; ++i) {
        out[i] = static_cast<Out>(static_cast<Out>(a[i]) -
                                  static_cast<Out>(b[i]));
      }
      return;
    default:
      for (size_t i = 0; i < n; ++i) {
        out[i] = static_cast<Out>(static_cast<Out>(a[i]) *
                                  static_cast<Out>(b[i]));
      }
      return;
  }
}

// Checked int64 loop; true when a row `mask` selects overflowed.
template <typename A, typename B>
bool CheckedLoop(ExprKind kind, A a, B b, size_t n, const uint8_t* mask,
                 int64_t* __restrict out) {
  bool overflow = false;
  for (size_t i = 0; i < n; ++i) {
    const bool o = CheckedOp(kind, a[i], b[i], &out[i]);
    overflow |= o && (mask == nullptr || mask[i] != 0);
  }
  return overflow;
}

// Leaf load: base + element, in T's unsigned domain so it cannot trap; the
// node's interval proves the true value fits T.
template <typename W, typename T>
void LoadLeaf(const W* src, int64_t base, size_t n, T* __restrict out) {
  using U = std::make_unsigned_t<T>;
  const U b = static_cast<U>(base);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<T>(static_cast<U>(b + static_cast<U>(src[i])));
  }
}

template <typename T>
void LoadLeafWord(const ExprProgram::Leaf& leaf, size_t start, size_t n,
                  T* out) {
  switch (leaf.word_bytes) {
    case 1:
      LoadLeaf(static_cast<const uint8_t*>(leaf.data) + start, leaf.base, n,
               out);
      return;
    case 2:
      LoadLeaf(static_cast<const uint16_t*>(leaf.data) + start, leaf.base, n,
               out);
      return;
    case 4:
      LoadLeaf(static_cast<const uint32_t*>(leaf.data) + start, leaf.base, n,
               out);
      return;
    default:
      LoadLeaf(static_cast<const uint64_t*>(leaf.data) + start, leaf.base, n,
               out);
      return;
  }
}

}  // namespace

ExprPtr Expr::Column(int column_index) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumn;
  e->column_index_ = column_index;
  return e;
}

ExprPtr Expr::Constant(int64_t value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kConstant;
  e->constant_ = value;
  return e;
}

ExprPtr Expr::Add(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kAdd;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Sub(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kSub;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Mul(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kMul;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

void Expr::CollectColumns(std::vector<int>* out) const {
  switch (kind_) {
    case ExprKind::kColumn:
      if (std::find(out->begin(), out->end(), column_index_) == out->end()) {
        out->push_back(column_index_);
      }
      return;
    case ExprKind::kConstant:
      return;
    default:
      lhs_->CollectColumns(out);
      rhs_->CollectColumns(out);
      return;
  }
}

Status Expr::Evaluate(const int64_t* const* columns, size_t n, int64_t* out,
                      const uint8_t* sel) const {
  switch (kind_) {
    case ExprKind::kColumn: {
      const int64_t* src = columns[column_index_];
      std::copy(src, src + n, out);
      return Status::OK();
    }
    case ExprKind::kConstant:
      std::fill(out, out + n, constant_);
      return Status::OK();
    default:
      break;
  }
  BIPIE_RETURN_NOT_OK(lhs_->Evaluate(columns, n, out, sel));
  AlignedBuffer rhs_values(n * sizeof(int64_t));
  int64_t* b = rhs_values.data_as<int64_t>();
  BIPIE_RETURN_NOT_OK(rhs_->Evaluate(columns, n, b, sel));
  bool overflow = false;
  for (size_t i = 0; i < n; ++i) {
    const bool o = CheckedOp(kind_, out[i], b[i], &out[i]);
    overflow |= o && (sel == nullptr || sel[i] != 0);
  }
  if (overflow) {
    return Status::OverflowRisk("int64 overflow evaluating an expression");
  }
  return Status::OK();
}

// --- ExprProgram -------------------------------------------------------------

int ExprProgram::Add(const Expr& expr,
                     const std::vector<ValueBounds>& column_bounds) {
  Node node;
  node.kind = expr.kind();
  switch (expr.kind()) {
    case ExprKind::kColumn:
      node.column = expr.column_index();
      node.bounds = column_bounds[node.column];
      break;
    case ExprKind::kConstant:
      node.constant = expr.constant();
      node.bounds = {node.constant, node.constant};
      break;
    default: {
      node.lhs = Add(*expr.lhs(), column_bounds);
      node.rhs = Add(*expr.rhs(), column_bounds);
      const Node& a = nodes_[node.lhs];
      const Node& b = nodes_[node.rhs];
      node.bounded = a.bounded && b.bounded;
      if (node.bounded) {
        Result<ValueBounds> r = CombineBounds(node.kind, a.bounds, b.bounds);
        node.bounded = r.ok();
        if (r.ok()) node.bounds = r.value();
      }
      break;
    }
  }
  // Operands are already shared, so structural equality is field equality.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& o = nodes_[i];
    if (o.kind == node.kind && o.lhs == node.lhs && o.rhs == node.rhs &&
        o.column == node.column && o.constant == node.constant) {
      return static_cast<int>(i);
    }
  }
  if (node.kind == ExprKind::kColumn) {
    node.leaf = static_cast<int>(leaf_columns_.size());
    leaf_columns_.push_back(node.column);
  }
  nodes_.push_back(node);
  return static_cast<int>(nodes_.size()) - 1;
}

void ExprProgram::MarkRoot(int node, bool int32_ok) {
  nodes_[node].marked = true;
  nodes_[node].int32_ok = nodes_[node].int32_ok && int32_ok;
}

void ExprProgram::Finalize() {
  num_roots_ = 0;
  num_slice_nodes_ = 0;
  for (Node& node : nodes_) {
    const bool narrow = node.bounded && FitsInt32(node.bounds) &&
                        (!node.marked || node.int32_ok);
    if (node.kind == ExprKind::kColumn || node.kind == ExprKind::kConstant) {
      node.type = narrow ? Type::kInt32 : Type::kInt64;
    } else if (!node.bounded) {
      node.type = Type::kChecked;
    } else {
      node.type = narrow && nodes_[node.lhs].type == Type::kInt32 &&
                          nodes_[node.rhs].type == Type::kInt32
                      ? Type::kInt32
                      : Type::kInt64;
    }
    node.root = node.marked ? static_cast<int>(num_roots_++) : -1;
    node.slice = !node.marked && node.kind != ExprKind::kConstant
                     ? static_cast<int>(num_slice_nodes_++)
                     : -1;
  }
}

Status ExprProgram::Run(const Leaf* leaves, size_t n, const uint8_t* mask,
                        void* const* roots, void* scratch) const {
  // A node's values for the slice at row s: its root array at s, or its
  // scratch slice.
  auto values = [&](const Node& node, size_t s) -> void* {
    if (node.root >= 0) {
      return static_cast<char*>(roots[node.root]) +
             s * (node.type == Type::kInt32 ? 4 : 8);
    }
    return static_cast<char*>(scratch) +
           static_cast<size_t>(node.slice) * kSliceRows * sizeof(int64_t);
  };
  auto with_operand = [&](const Node& node, size_t s, auto&& f) {
    if (node.kind == ExprKind::kConstant) {
      f(Imm{node.constant});
    } else if (node.type == Type::kInt32) {
      f(Arr<int32_t>{static_cast<const int32_t*>(values(node, s))});
    } else {
      f(Arr<int64_t>{static_cast<const int64_t*>(values(node, s))});
    }
  };
  for (size_t s = 0; s < n; s += kSliceRows) {
    const size_t len = std::min(kSliceRows, n - s);
    for (const Node& node : nodes_) {
      if (node.kind == ExprKind::kConstant && node.root < 0) continue;
      void* out = values(node, s);
      if (node.kind == ExprKind::kConstant) {
        if (node.type == Type::kInt32) {
          std::fill_n(static_cast<int32_t*>(out), len,
                      static_cast<int32_t>(node.constant));
        } else {
          std::fill_n(static_cast<int64_t*>(out), len, node.constant);
        }
        continue;
      }
      if (node.kind == ExprKind::kColumn) {
        if (node.type == Type::kInt32) {
          LoadLeafWord(leaves[node.leaf], s, len, static_cast<int32_t*>(out));
        } else {
          LoadLeafWord(leaves[node.leaf], s, len, static_cast<int64_t*>(out));
        }
        continue;
      }
      bool overflow = false;
      with_operand(nodes_[node.lhs], s, [&](auto a) {
        with_operand(nodes_[node.rhs], s, [&](auto b) {
          switch (node.type) {
            case Type::kInt32:
              BinaryLoop(node.kind, a, b, len, static_cast<int32_t*>(out));
              break;
            case Type::kInt64:
              BinaryLoop(node.kind, a, b, len, static_cast<int64_t*>(out));
              break;
            case Type::kChecked:
              overflow =
                  CheckedLoop(node.kind, a, b, len,
                              mask == nullptr ? nullptr : mask + s,
                              static_cast<int64_t*>(out));
              break;
          }
        });
      });
      if (overflow) {
        return Status::OverflowRisk("int64 overflow evaluating an expression");
      }
    }
  }
  return Status::OK();
}

}  // namespace bipie
