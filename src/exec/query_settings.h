// Typed per-query settings (DESIGN.md §13).
//
// Replaces ad-hoc env-var knobs with a declared registry: every setting has
// a name, a type, a default, a range (or allowed-value list) and a
// docstring, so a service layer can enumerate, validate and document the
// whole surface from one table — the BaseSettings idea from the ClickHouse
// lineage named in the ROADMAP. A QuerySettings value is carried on
// QueryContext; Set() validates names, types and ranges up front, so by the
// time execution starts every value is known good.
//
// Process-scope knobs that must be decided before any query exists (the
// scheduler's worker count, the admission gate) stay environment-driven but
// go through the same strict parser, EnvUInt64Setting: full-string digits
// only, clamped to the declared range, one warning per variable on bad
// input — never a silent wrap of "-1" to 2^64-1.
#ifndef BIPIE_EXEC_QUERY_SETTINGS_H_
#define BIPIE_EXEC_QUERY_SETTINGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace bipie {

enum class SettingType { kUInt64, kString };

// One registry row. The registry is static data; Doc strings surface in
// README's settings table and error messages.
struct SettingDef {
  const char* name;
  SettingType type;
  const char* doc;
  uint64_t default_u64 = 0;  // kUInt64
  uint64_t min_u64 = 0;      // kUInt64: inclusive range
  uint64_t max_u64 = 0;
  const char* default_string = "";  // kString
  // kString: '|'-separated allowed values; the empty string is always
  // allowed (meaning "unset").
  const char* allowed = "";
};

class QuerySettings {
 public:
  QuerySettings();

  // The full registry, in declaration order.
  static const std::vector<SettingDef>& Registry();
  // nullptr when no setting has that name.
  static const SettingDef* Find(const std::string& name);

  // Parses and validates `text` against the named setting's type and range.
  // kInvalidArgument for unknown names or unparseable values, kOutOfRange
  // for well-formed values outside the declared range.
  Status Set(const std::string& name, const std::string& text);
  Status SetUInt64(const std::string& name, uint64_t value);
  Status SetString(const std::string& name, const std::string& value);

  // Typed getters; the name must exist with the matching type (DCHECKed).
  uint64_t GetUInt64(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;

  // Named accessors for every registered setting (the hot call sites).
  uint64_t num_threads() const { return u64_[0]; }
  uint64_t memory_limit_bytes() const { return u64_[1]; }
  uint64_t memory_soft_limit_bytes() const { return u64_[2]; }
  uint64_t deadline_ms() const { return u64_[3]; }
  const std::string& force_selection_strategy() const { return str_[0]; }
  const std::string& force_aggregation_strategy() const { return str_[1]; }
  const std::string& force_byteslice() const { return str_[2]; }
  const std::string& priority() const { return str_[3]; }

 private:
  // Values live in per-type arrays indexed by the registry row's
  // type-local ordinal (SettingDef rows are mapped at construction).
  std::vector<uint64_t> u64_;
  std::vector<std::string> str_;
};

// Strict unsigned parse: the whole string must be decimal digits (no sign,
// no prefix, no trailing garbage) and fit in uint64. Returns false
// otherwise.
bool ParseUInt64Strict(const std::string& text, uint64_t* out);

// Reads an environment variable through the strict parser. Absent -> `def`.
// Malformed -> `def` with a one-time (per variable) stderr warning.
// Well-formed but outside [min, max] -> clamped, with the same warning.
uint64_t EnvUInt64Setting(const char* name, uint64_t def, uint64_t min,
                          uint64_t max);

}  // namespace bipie

#endif  // BIPIE_EXEC_QUERY_SETTINGS_H_
