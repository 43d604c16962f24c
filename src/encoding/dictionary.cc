#include "encoding/dictionary.h"

namespace bipie {

uint32_t IntDictionary::GetOrInsert(int64_t value) {
  auto [it, inserted] =
      index_.try_emplace(value, static_cast<uint32_t>(values_.size()));
  if (inserted) values_.push_back(value);
  return it->second;
}

int64_t IntDictionary::Find(int64_t value) const {
  auto it = index_.find(value);
  return it == index_.end() ? -1 : static_cast<int64_t>(it->second);
}

uint32_t StringDictionary::GetOrInsert(const std::string& value) {
  auto [it, inserted] =
      index_.try_emplace(value, static_cast<uint32_t>(values_.size()));
  if (inserted) values_.push_back(value);
  return it->second;
}

int64_t StringDictionary::Find(const std::string& value) const {
  auto it = index_.find(value);
  return it == index_.end() ? -1 : static_cast<int64_t>(it->second);
}

}  // namespace bipie
