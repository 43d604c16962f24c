#include "sql/parser.h"

#include <cctype>
#include <cstdint>
#include <optional>
#include <vector>

namespace bipie {

namespace {

enum class TokenKind {
  kIdentifier,
  kInteger,
  kString,   // 'quoted'
  kSymbol,   // ( ) , * + - < > = ! <= >= <> !=
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // identifier (original case) / symbol / string body
  int64_t value = 0;  // kInteger
  size_t offset = 0;  // byte offset of the token's first character
};

// Lower-cases ASCII for keyword comparison.
std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return out;
}

// Bounded, printable rendering of a token for error context: SQL is
// untrusted network input, so the echoed text is clipped and non-printable
// bytes are masked before it lands in an error message.
std::string ContextOf(const Token& token) {
  if (token.kind == TokenKind::kEnd) return "end of input";
  constexpr size_t kMaxContext = 24;
  std::string out = "'";
  const size_t n = std::min(token.text.size(), kMaxContext);
  for (size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(token.text[i]);
    out += (c >= 0x20 && c < 0x7f) ? static_cast<char>(c) : '?';
  }
  if (token.text.size() > kMaxContext) out += "...";
  out += "'";
  return out;
}

// Every parse/lex error carries the byte offset and the offending token, so
// a caller (or a human at the bipie_client REPL) can point at the input.
Status ErrorAt(size_t offset, const std::string& context,
               const std::string& message) {
  return Status::InvalidArgument("parse error at byte " +
                                 std::to_string(offset) + " near " + context +
                                 ": " + message);
}

Status ErrorAtToken(const Token& token, const std::string& message) {
  return ErrorAt(token.offset, ContextOf(token), message);
}

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Status Tokenize(std::vector<Token>* out) {
    size_t i = 0;
    while (i < input_.size()) {
      const char c = input_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[j])) ||
                input_[j] == '_')) {
          ++j;
        }
        out->push_back(
            {TokenKind::kIdentifier, input_.substr(i, j - i), 0, i});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < input_.size() &&
               std::isdigit(static_cast<unsigned char>(input_[j]))) {
          ++j;
        }
        Token t;
        t.kind = TokenKind::kInteger;
        t.text = input_.substr(i, j - i);
        t.offset = i;
        // Overflow-checked accumulate: a 40-digit literal is a structured
        // error, never an exception (std::stoll would throw out_of_range).
        int64_t value = 0;
        for (const char d : t.text) {
          const int64_t digit = d - '0';
          if (value > (INT64_MAX - digit) / 10) {
            return ErrorAt(i, ContextOf(t),
                           "integer literal out of 64-bit range");
          }
          value = value * 10 + digit;
        }
        t.value = value;
        out->push_back(t);
        i = j;
        continue;
      }
      if (c == '\'') {
        const size_t close = input_.find('\'', i + 1);
        if (close == std::string::npos) {
          Token t{TokenKind::kString, input_.substr(i + 1), 0, i};
          return ErrorAt(i, ContextOf(t), "unterminated string literal");
        }
        out->push_back(
            {TokenKind::kString, input_.substr(i + 1, close - i - 1), 0, i});
        i = close + 1;
        continue;
      }
      // Two-character comparison operators first.
      if (i + 1 < input_.size()) {
        const std::string two = input_.substr(i, 2);
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
          out->push_back({TokenKind::kSymbol, two, 0, i});
          i += 2;
          continue;
        }
      }
      if (std::string("(),*+-<>=").find(c) != std::string::npos) {
        out->push_back({TokenKind::kSymbol, std::string(1, c), 0, i});
        ++i;
        continue;
      }
      Token t{TokenKind::kSymbol, std::string(1, c), 0, i};
      return ErrorAt(i, ContextOf(t), "unexpected character in query");
    }
    out->push_back({TokenKind::kEnd, "", 0, input_.size()});
    return Status::OK();
  }

 private:
  const std::string& input_;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const Table& table)
      : tokens_(std::move(tokens)), table_(table) {}

  Result<ParsedQuery> Parse() {
    ParsedQuery parsed;
    BIPIE_RETURN_NOT_OK(ExpectKeyword("select"));

    // SELECT list: group columns and aggregates in any order.
    std::vector<std::string> select_columns;
    for (;;) {
      Result<bool> item = ParseSelectItem(&parsed.spec, &select_columns);
      if (!item.ok()) return item.status();
      if (!AcceptSymbol(",")) break;
    }

    BIPIE_RETURN_NOT_OK(ExpectKeyword("from"));
    if (Peek().kind != TokenKind::kIdentifier) {
      return ErrorAtToken(Peek(), "expected table name after FROM");
    }
    parsed.table_name = Next().text;

    if (AcceptKeyword("where")) {
      for (;;) {
        BIPIE_RETURN_NOT_OK(ParsePredicate(&parsed.spec));
        if (!AcceptKeyword("and")) break;
      }
    }

    if (AcceptKeyword("group")) {
      BIPIE_RETURN_NOT_OK(ExpectKeyword("by"));
      for (;;) {
        if (Peek().kind != TokenKind::kIdentifier) {
          return ErrorAtToken(Peek(), "expected column in GROUP BY");
        }
        const Token& tok = Next();
        if (table_.FindColumn(tok.text) < 0) {
          return ErrorAtToken(tok, "unknown GROUP BY column");
        }
        parsed.spec.group_by.push_back(tok.text);
        if (!AcceptSymbol(",")) break;
      }
    }

    if (Peek().kind != TokenKind::kEnd) {
      return ErrorAtToken(Peek(), "unexpected trailing input");
    }

    // Validate: every bare select column must be grouped.
    for (const std::string& col : select_columns) {
      bool grouped = false;
      for (const std::string& g : parsed.spec.group_by) grouped |= g == col;
      if (!grouped) {
        return Status::InvalidArgument(
            "column " + col + " must appear in GROUP BY or an aggregate");
      }
    }
    if (parsed.spec.aggregates.empty()) {
      return Status::InvalidArgument("query needs at least one aggregate");
    }
    return parsed;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() { return tokens_[pos_++]; }

  bool AcceptSymbol(const std::string& symbol) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == symbol) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptKeyword(const std::string& keyword) {
    if (Peek().kind == TokenKind::kIdentifier &&
        Lower(Peek().text) == keyword) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& keyword) {
    if (!AcceptKeyword(keyword)) {
      return ErrorAtToken(Peek(), "expected keyword '" + keyword + "'");
    }
    return Status::OK();
  }
  Status ExpectSymbol(const std::string& symbol) {
    if (!AcceptSymbol(symbol)) {
      return ErrorAtToken(Peek(), "expected '" + symbol + "'");
    }
    return Status::OK();
  }

  // Returns true when an item was consumed; registers bare columns in
  // `select_columns` and aggregates in the spec.
  Result<bool> ParseSelectItem(QuerySpec* spec,
                               std::vector<std::string>* select_columns) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return ErrorAtToken(Peek(), "expected select item");
    }
    const std::string word = Lower(Peek().text);
    if (word == "count") {
      ++pos_;
      BIPIE_RETURN_NOT_OK(ExpectSymbol("("));
      BIPIE_RETURN_NOT_OK(ExpectSymbol("*"));
      BIPIE_RETURN_NOT_OK(ExpectSymbol(")"));
      spec->aggregates.push_back(AggregateSpec::Count());
      return true;
    }
    if (word == "sum" || word == "avg" || word == "min" || word == "max") {
      ++pos_;
      BIPIE_RETURN_NOT_OK(ExpectSymbol("("));
      if (word == "sum") {
        // sum() takes a full expression.
        Result<ExprPtr> expr = ParseExpr();
        if (!expr.ok()) return expr.status();
        BIPIE_RETURN_NOT_OK(ExpectSymbol(")"));
        // A plain column reference stays a column sum (fast raw path).
        if (expr.value()->kind() == ExprKind::kColumn) {
          spec->aggregates.push_back(AggregateSpec::Sum(
              table_.schema()[expr.value()->column_index()].name));
        } else {
          spec->aggregates.push_back(AggregateSpec::SumExpr(expr.value()));
        }
        return true;
      }
      if (Peek().kind != TokenKind::kIdentifier) {
        return ErrorAtToken(Peek(), word + "() takes a column name");
      }
      const Token& col = Next();
      if (table_.FindColumn(col.text) < 0) {
        return ErrorAtToken(col, "unknown column");
      }
      BIPIE_RETURN_NOT_OK(ExpectSymbol(")"));
      if (word == "avg") {
        spec->aggregates.push_back(AggregateSpec::Avg(col.text));
      } else if (word == "min") {
        spec->aggregates.push_back(AggregateSpec::Min(col.text));
      } else {
        spec->aggregates.push_back(AggregateSpec::Max(col.text));
      }
      return true;
    }
    // Bare column reference.
    const Token& col = Next();
    if (table_.FindColumn(col.text) < 0) {
      return ErrorAtToken(col, "unknown column");
    }
    select_columns->push_back(col.text);
    return true;
  }

  // expr := term (('+' | '-') term)*
  // term := factor ('*' factor)*
  // factor := column | integer | '-' factor | '(' expr ')'
  Result<ExprPtr> ParseExpr() {
    Result<ExprPtr> lhs = ParseTerm();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = lhs.value();
    for (;;) {
      if (AcceptSymbol("+")) {
        Result<ExprPtr> rhs = ParseTerm();
        if (!rhs.ok()) return rhs;
        expr = Intern(Expr::Add(expr, rhs.value()));
      } else if (AcceptSymbol("-")) {
        Result<ExprPtr> rhs = ParseTerm();
        if (!rhs.ok()) return rhs;
        expr = Intern(Expr::Sub(expr, rhs.value()));
      } else {
        return expr;
      }
    }
  }

  Result<ExprPtr> ParseTerm() {
    Result<ExprPtr> lhs = ParseFactor();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = lhs.value();
    while (AcceptSymbol("*")) {
      Result<ExprPtr> rhs = ParseFactor();
      if (!rhs.ok()) return rhs;
      expr = Intern(Expr::Mul(expr, rhs.value()));
    }
    return expr;
  }

  Result<ExprPtr> ParseFactor() {
    if (AcceptSymbol("(")) {
      Result<ExprPtr> inner = ParseExpr();
      if (!inner.ok()) return inner;
      BIPIE_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    if (AcceptSymbol("-")) {
      Result<ExprPtr> inner = ParseFactor();
      if (!inner.ok()) return inner;
      return Intern(Expr::Sub(Intern(Expr::Constant(0)), inner.value()));
    }
    if (Peek().kind == TokenKind::kInteger) {
      return Intern(Expr::Constant(Next().value));
    }
    if (Peek().kind == TokenKind::kIdentifier) {
      const Token& name = Next();
      const int idx = table_.FindColumn(name.text);
      if (idx < 0) {
        return ErrorAtToken(name, "unknown column");
      }
      return Intern(Expr::Column(idx));
    }
    return ErrorAtToken(Peek(), "expected expression");
  }

  Result<int64_t> ParseIntLiteral() {
    bool negative = false;
    if (Peek().kind == TokenKind::kSymbol && Peek().text == "-") {
      ++pos_;
      negative = true;
    }
    if (Peek().kind != TokenKind::kInteger) {
      return ErrorAtToken(Peek(), "expected integer literal");
    }
    const int64_t v = Next().value;
    return negative ? -v : v;
  }

  Status ParsePredicate(QuerySpec* spec) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return ErrorAtToken(Peek(), "expected column in WHERE");
    }
    const Token& col_tok = Next();
    const std::string col = col_tok.text;
    if (table_.FindColumn(col) < 0) {
      return ErrorAtToken(col_tok, "unknown column");
    }
    if (AcceptKeyword("between")) {
      Result<int64_t> lo = ParseIntLiteral();
      if (!lo.ok()) return lo.status();
      BIPIE_RETURN_NOT_OK(ExpectKeyword("and"));
      Result<int64_t> hi = ParseIntLiteral();
      if (!hi.ok()) return hi.status();
      spec->filters.push_back(
          ColumnPredicate::Between(col, lo.value(), hi.value()));
      return Status::OK();
    }
    if (Peek().kind != TokenKind::kSymbol) {
      return ErrorAtToken(Peek(), "expected comparison operator");
    }
    const Token& symbol_tok = Next();
    const std::string symbol = symbol_tok.text;
    CompareOp op;
    if (symbol == "=") {
      op = CompareOp::kEq;
    } else if (symbol == "<>" || symbol == "!=") {
      op = CompareOp::kNe;
    } else if (symbol == "<") {
      op = CompareOp::kLt;
    } else if (symbol == "<=") {
      op = CompareOp::kLe;
    } else if (symbol == ">") {
      op = CompareOp::kGt;
    } else if (symbol == ">=") {
      op = CompareOp::kGe;
    } else {
      return ErrorAtToken(symbol_tok, "unsupported operator");
    }
    bool negative = false;
    if (Peek().kind == TokenKind::kSymbol && Peek().text == "-") {
      ++pos_;
      negative = true;
    }
    if (Peek().kind == TokenKind::kInteger) {
      const int64_t literal = Next().value;
      spec->filters.emplace_back(col, op, negative ? -literal : literal);
      return Status::OK();
    }
    if (Peek().kind == TokenKind::kString && !negative) {
      spec->filters.emplace_back(col, op, Next().text);
      return Status::OK();
    }
    return ErrorAtToken(Peek(), "expected literal after operator");
  }

  // One node per structurally equal subtree of the statement: `e`'s
  // operands are already interned, so equal operands are the same node.
  ExprPtr Intern(ExprPtr e) {
    for (const ExprPtr& seen : exprs_) {
      if (seen->kind() == e->kind() && seen->lhs() == e->lhs() &&
          seen->rhs() == e->rhs() &&
          seen->column_index() == e->column_index() &&
          seen->constant() == e->constant()) {
        return seen;
      }
    }
    exprs_.push_back(e);
    return e;
  }

  std::vector<Token> tokens_;
  const Table& table_;
  size_t pos_ = 0;
  std::vector<ExprPtr> exprs_;  // every node built so far, for Intern
};

}  // namespace

Result<ParsedQuery> ParseQuery(const std::string& sql, const Table& table) {
  std::vector<Token> tokens;
  Lexer lexer(sql);
  BIPIE_RETURN_NOT_OK(lexer.Tokenize(&tokens));
  Parser parser(std::move(tokens), table);
  return parser.Parse();
}

Result<PreparsedQuery> PreparseQuery(const std::string& sql) {
  std::vector<Token> tokens;
  Lexer lexer(sql);
  BIPIE_RETURN_NOT_OK(lexer.Tokenize(&tokens));
  PreparsedQuery out;
  out.statement = sql;
  size_t pos = 0;
  if (tokens[pos].kind == TokenKind::kIdentifier &&
      Lower(tokens[pos].text) == "explain") {
    out.explain = true;
    // Strip the prefix so the statement re-parses as a plain query.
    out.statement = sql.substr(tokens[pos].offset + tokens[pos].text.size());
    ++pos;
  }
  if (!(tokens[pos].kind == TokenKind::kIdentifier &&
        Lower(tokens[pos].text) == "select")) {
    return ErrorAtToken(tokens[pos], "expected SELECT statement");
  }
  // Find the top-level FROM. The grammar has no subqueries, so the first
  // FROM keyword is the one that names the table.
  for (size_t i = pos; i < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::kIdentifier &&
        Lower(tokens[i].text) == "from") {
      if (i + 1 >= tokens.size() ||
          tokens[i + 1].kind != TokenKind::kIdentifier) {
        const Token& at = tokens[std::min(i + 1, tokens.size() - 1)];
        return ErrorAtToken(at, "expected table name after FROM");
      }
      out.table_name = tokens[i + 1].text;
      return out;
    }
  }
  return ErrorAtToken(tokens.back(), "query has no FROM clause");
}

}  // namespace bipie
