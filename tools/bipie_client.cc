// bipie_client: an interactive REPL speaking the framed protocol.
//
//   bipie_client [--host H] [--port N] [-e "SQL"]
//
// Reads statements from stdin (or runs the single -e statement and exits):
//
//   SET key = value          apply a session setting delta
//   SELECT ... FROM t ...    run a query, print rows and a stats line
//   EXPLAIN SELECT ...       print the plan
//   \q                       quit
//
// Statements may end with a ';'. Exit status is 0 when every statement
// succeeded, 1 otherwise (so CI can smoke-test end-to-end with -e).

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/client.h"

namespace {

// Trims whitespace and one trailing ';'.
std::string Clean(std::string s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  s = s.substr(b, e - b + 1);
  if (!s.empty() && s.back() == ';') {
    s.pop_back();
    size_t e2 = s.find_last_not_of(" \t\r\n");
    s = e2 == std::string::npos ? "" : s.substr(0, e2 + 1);
  }
  return s;
}

bool StartsWithWord(const std::string& s, const char* word) {
  size_t n = std::strlen(word);
  if (s.size() < n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (std::tolower(static_cast<unsigned char>(s[i])) != word[i]) {
      return false;
    }
  }
  return s.size() == n || s[n] == ' ' || s[n] == '\t';
}

// "SET name = value" (the '=' optional).
bool ParseSet(const std::string& s, std::string* name, std::string* value) {
  size_t i = 3;  // past "set"
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  size_t name_start = i;
  while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])) &&
         s[i] != '=') {
    ++i;
  }
  if (i == name_start) return false;
  *name = s.substr(name_start, i - name_start);
  while (i < s.size() && (std::isspace(static_cast<unsigned char>(s[i])) ||
                          s[i] == '=')) {
    ++i;
  }
  if (i >= s.size()) return false;
  *value = s.substr(i);
  return true;
}

int RunStatement(bipie::server::Client& client, const std::string& stmt) {
  if (StartsWithWord(stmt, "set")) {
    std::string name, value;
    if (!ParseSet(stmt, &name, &value)) {
      std::fprintf(stderr, "usage: SET <name> = <value>\n");
      return 1;
    }
    bipie::Status st = client.Set(name, value);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }

  bipie::QueryResult result;
  bipie::server::QueryStatsWire stats;
  std::string explain_text;
  bipie::Status st = client.SendQuery(stmt);
  if (st.ok()) st = client.ReadQueryResponse(&result, &stats, &explain_text);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!explain_text.empty()) {
    std::fputs(explain_text.c_str(), stdout);
    if (explain_text.back() != '\n') std::printf("\n");
    return 0;
  }

  for (const std::string& name : result.group_column_names) {
    std::printf("%s\t", name.c_str());
  }
  std::printf("count\tvalues\n");
  for (const bipie::ResultRow& row : result.rows) {
    for (const bipie::GroupValue& g : row.group) {
      if (g.is_string) {
        std::printf("%s\t", g.string_value.c_str());
      } else {
        std::printf("%lld\t", static_cast<long long>(g.int_value));
      }
    }
    std::printf("%llu", static_cast<unsigned long long>(row.count));
    for (int64_t s : row.sums) {
      std::printf("\t%lld", static_cast<long long>(s));
    }
    std::printf("\n");
  }
  std::printf(
      "-- %zu row(s); scanned=%llu selected=%llu queue_wait_ms=%.2f "
      "exec_ms=%.2f peak_mem=%llu%s\n",
      result.rows.size(),
      static_cast<unsigned long long>(stats.rows_scanned),
      static_cast<unsigned long long>(stats.rows_selected),
      static_cast<double>(stats.queue_wait_ns) / 1e6,
      static_cast<double>(stats.exec_ns) / 1e6,
      static_cast<unsigned long long>(stats.peak_memory_bytes),
      stats.used_hash_fallback ? " (some segments hashed)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 4555;
  std::string one_shot;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "-e") {
      one_shot = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  bipie::server::Client client;
  bipie::Status st = client.Connect(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
    return 1;
  }

  if (!one_shot.empty()) return RunStatement(client, Clean(one_shot));

  int rc = 0;
  std::string line;
  std::fprintf(stderr, "bipie> ");
  char buf[1 << 16];
  while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
    std::string stmt = Clean(buf);
    if (stmt.empty()) {
      std::fprintf(stderr, "bipie> ");
      continue;
    }
    if (stmt == "\\q" || stmt == "quit" || stmt == "exit") break;
    rc |= RunStatement(client, stmt);
    std::fprintf(stderr, "bipie> ");
  }
  return rc;
}
