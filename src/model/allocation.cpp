#include "model/allocation.hpp"

#include <algorithm>
#include <cstdio>

#include "model/dag.hpp"

namespace tsce::model {

template <class Strings>
void Allocation::shape(const Strings& strings) {
  offset_.resize(strings.size() + 1);
  std::uint32_t total = 0;
  for (std::size_t k = 0; k < strings.size(); ++k) {
    offset_[k] = total;
    total += static_cast<std::uint32_t>(strings[k].size());
  }
  offset_[strings.size()] = total;
  flat_.assign(total, kUnassigned);
  deployed_.assign(strings.size(), 0);
}

Allocation::Allocation(const SystemModel& model) { shape(model.strings); }

Allocation::Allocation(const dag::DagSystemModel& model) { shape(model.strings); }

void Allocation::clear_string(StringId k) noexcept {
  const auto ku = static_cast<std::size_t>(k);
  std::fill(flat_.begin() + offset_[ku], flat_.begin() + offset_[ku + 1],
            kUnassigned);
  deployed_[ku] = 0;
}

bool Allocation::fully_mapped(StringId k) const noexcept {
  const auto ku = static_cast<std::size_t>(k);
  return std::none_of(flat_.begin() + offset_[ku], flat_.begin() + offset_[ku + 1],
                      [](MachineId j) { return j == kUnassigned; });
}

std::size_t Allocation::num_deployed() const noexcept {
  return static_cast<std::size_t>(
      std::count(deployed_.begin(), deployed_.end(), std::uint8_t{1}));
}

std::vector<StringId> Allocation::deployed_strings() const {
  std::vector<StringId> out;
  for (std::size_t k = 0; k < deployed_.size(); ++k) {
    if (deployed_[k]) out.push_back(static_cast<StringId>(k));
  }
  return out;
}

std::string Allocation::to_string(const SystemModel& model) const {
  std::string out;
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    const auto& s = model.strings[k];
    char head[128];
    std::snprintf(head, sizeof(head), "string %zu (%s, worth %d, %s): ", k,
                  s.name.empty() ? "unnamed" : s.name.c_str(), s.worth_factor(),
                  deployed_[k] ? "deployed" : "not deployed");
    out += head;
    for (std::size_t i = 0; i < string_size(static_cast<StringId>(k)); ++i) {
      const MachineId j = machine_of(static_cast<StringId>(k), static_cast<AppIndex>(i));
      char cell[32];
      if (j == kUnassigned) {
        std::snprintf(cell, sizeof(cell), "%s-", i ? " -> " : "");
      } else {
        std::snprintf(cell, sizeof(cell), "%sm%d", i ? " -> " : "", j);
      }
      out += cell;
    }
    out += '\n';
  }
  return out;
}

}  // namespace tsce::model
