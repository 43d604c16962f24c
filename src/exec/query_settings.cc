#include "exec/query_settings.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

#include "common/macros.h"

namespace bipie {

namespace {

constexpr uint64_t kMaxMemoryBytes = uint64_t{1} << 48;

// Registry order fixes the type-local ordinals the named accessors in the
// header index into: uint64 rows are u64_[0..] and string rows str_[0..],
// each in declaration order.
const std::vector<SettingDef>& RegistryImpl() {
  static const std::vector<SettingDef>* defs = new std::vector<SettingDef>{
      {"num_threads", SettingType::kUInt64,
       "Scan parallelism: 0 = shared morsel pool, 1 = inline on the calling "
       "thread.",
       1, 0, 1},
      {"memory_limit_bytes", SettingType::kUInt64,
       "Hard per-query memory limit; an allocation pushing the query past "
       "it fails the query with kResourceExhausted. 0 = unlimited.",
       0, 0, kMaxMemoryBytes},
      {"memory_soft_limit_bytes", SettingType::kUInt64,
       "Soft per-query memory limit: crossing it never fails the query but "
       "latches a flag reported via the scan.soft_limit_exceeded counter. "
       "0 = disabled.",
       0, 0, kMaxMemoryBytes},
      {"deadline_ms", SettingType::kUInt64,
       "Query deadline in milliseconds from ApplySettings(); past it the "
       "next cancellation check returns kCancelled. 0 = no deadline.",
       0, 0, 86400000},
      {"force_selection_strategy", SettingType::kString,
       "Force one selection strategy instead of the per-batch choice; the "
       "scan fails with kNotSupported when the strategy cannot run. Empty = "
       "adaptive.",
       0, 0, 0, "", "gather|compact|special-group"},
      {"force_aggregation_strategy", SettingType::kString,
       "Force one aggregation strategy instead of the per-segment choice. "
       "Empty = adaptive.",
       0, 0, 0, "",
       "scalar|in-register|sort-based|multi-aggregate|checked-scalar|"
       "run-based"},
      {"force_byteslice", SettingType::kString,
       "Byteslice predicate kernels for byte-sliced filter columns: 'on' "
       "forces the plane kernels (the scan fails with kNotSupported when no "
       "filter binds to a byte-sliced column), 'off' forces the "
       "assemble-then-compare fallback. Empty = adaptive admission.",
       0, 0, 0, "", "on|off"},
      {"priority", SettingType::kString,
       "Admission priority band. A freed slot goes to the highest-priority "
       "queued query; aging promotes long waiters one band per aging "
       "quantum so low priority is delayed under saturation, never starved.",
       0, 0, 0, "normal", "high|normal|low"},
  };
  return *defs;
}

// Registry index -> type-local ordinal.
size_t OrdinalOf(size_t registry_index) {
  const std::vector<SettingDef>& defs = RegistryImpl();
  size_t ordinal = 0;
  for (size_t i = 0; i < registry_index; ++i) {
    if (defs[i].type == defs[registry_index].type) ++ordinal;
  }
  return ordinal;
}

// -1 when absent.
int IndexOf(const std::string& name) {
  const std::vector<SettingDef>& defs = RegistryImpl();
  for (size_t i = 0; i < defs.size(); ++i) {
    if (name == defs[i].name) return static_cast<int>(i);
  }
  return -1;
}

bool StringAllowed(const SettingDef& def, const std::string& value) {
  if (value.empty()) return true;
  const std::string allowed(def.allowed);
  size_t pos = 0;
  while (pos <= allowed.size()) {
    const size_t bar = allowed.find('|', pos);
    const size_t end = bar == std::string::npos ? allowed.size() : bar;
    if (allowed.compare(pos, end - pos, value) == 0 && end - pos > 0) {
      return true;
    }
    if (bar == std::string::npos) break;
    pos = bar + 1;
  }
  return false;
}

void WarnOnce(const char* env_name, const std::string& message) {
  static std::mutex mu;
  static std::set<std::string>* warned = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  if (!warned->insert(env_name).second) return;
  std::fprintf(stderr, "bipie: warning: %s\n", message.c_str());
}

}  // namespace

bool ParseUInt64Strict(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

uint64_t EnvUInt64Setting(const char* name, uint64_t def, uint64_t min,
                          uint64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr) return def;
  uint64_t value = 0;
  if (!ParseUInt64Strict(env, &value)) {
    WarnOnce(name, std::string(name) + "='" + env +
                       "' is not a non-negative integer; using default " +
                       std::to_string(def));
    return def;
  }
  if (value < min || value > max) {
    const uint64_t clamped = value < min ? min : max;
    WarnOnce(name, std::string(name) + "=" + std::to_string(value) +
                       " is outside [" + std::to_string(min) + ", " +
                       std::to_string(max) + "]; clamping to " +
                       std::to_string(clamped));
    return clamped;
  }
  return value;
}

QuerySettings::QuerySettings() {
  for (const SettingDef& def : RegistryImpl()) {
    switch (def.type) {
      case SettingType::kUInt64:
        u64_.push_back(def.default_u64);
        break;
      case SettingType::kString:
        str_.emplace_back(def.default_string);
        break;
    }
  }
}

const std::vector<SettingDef>& QuerySettings::Registry() {
  return RegistryImpl();
}

const SettingDef* QuerySettings::Find(const std::string& name) {
  const int idx = IndexOf(name);
  return idx < 0 ? nullptr : &RegistryImpl()[static_cast<size_t>(idx)];
}

Status QuerySettings::Set(const std::string& name, const std::string& text) {
  const int idx = IndexOf(name);
  if (idx < 0) return Status::InvalidArgument("unknown setting: " + name);
  const SettingDef& def = RegistryImpl()[static_cast<size_t>(idx)];
  switch (def.type) {
    case SettingType::kUInt64: {
      uint64_t value = 0;
      if (!ParseUInt64Strict(text, &value)) {
        return Status::InvalidArgument("setting " + name +
                                       ": not a non-negative integer: '" +
                                       text + "'");
      }
      return SetUInt64(name, value);
    }
    case SettingType::kString:
      return SetString(name, text);
  }
  return Status::Internal("unreachable");
}

Status QuerySettings::SetUInt64(const std::string& name, uint64_t value) {
  const int idx = IndexOf(name);
  if (idx < 0) return Status::InvalidArgument("unknown setting: " + name);
  const SettingDef& def = RegistryImpl()[static_cast<size_t>(idx)];
  if (def.type != SettingType::kUInt64) {
    return Status::InvalidArgument("setting " + name + " is not an integer");
  }
  if (value < def.min_u64 || value > def.max_u64) {
    return Status::OutOfRange(
        "setting " + name + "=" + std::to_string(value) + " is outside [" +
        std::to_string(def.min_u64) + ", " + std::to_string(def.max_u64) +
        "]");
  }
  u64_[OrdinalOf(static_cast<size_t>(idx))] = value;
  return Status::OK();
}

Status QuerySettings::SetString(const std::string& name,
                                const std::string& value) {
  const int idx = IndexOf(name);
  if (idx < 0) return Status::InvalidArgument("unknown setting: " + name);
  const SettingDef& def = RegistryImpl()[static_cast<size_t>(idx)];
  if (def.type != SettingType::kString) {
    return Status::InvalidArgument("setting " + name + " is not a string");
  }
  if (!StringAllowed(def, value)) {
    return Status::OutOfRange("setting " + name + "='" + value +
                              "' is not one of: " + def.allowed);
  }
  str_[OrdinalOf(static_cast<size_t>(idx))] = value;
  return Status::OK();
}

uint64_t QuerySettings::GetUInt64(const std::string& name) const {
  const int idx = IndexOf(name);
  BIPIE_DCHECK(idx >= 0 &&
               RegistryImpl()[static_cast<size_t>(idx)].type ==
                   SettingType::kUInt64);
  return u64_[OrdinalOf(static_cast<size_t>(idx))];
}

const std::string& QuerySettings::GetString(const std::string& name) const {
  const int idx = IndexOf(name);
  BIPIE_DCHECK(idx >= 0 && RegistryImpl()[static_cast<size_t>(idx)].type ==
                               SettingType::kString);
  return str_[OrdinalOf(static_cast<size_t>(idx))];
}

}  // namespace bipie
