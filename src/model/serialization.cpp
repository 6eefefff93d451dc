#include "model/serialization.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace tsce::model {

using util::Json;

namespace {

constexpr const char* kModelFormat = "tsce-model-v1";
constexpr const char* kAllocationFormat = "tsce-allocation-v1";

[[noreturn]] void schema_error(const std::string& message) {
  throw std::runtime_error("serialization: " + message);
}

void check_format(const Json& json, const char* expected) {
  if (!json.is_object() || !json.contains("format") ||
      !json.at("format").is_string() || json.at("format").as_string() != expected) {
    schema_error(std::string("expected format '") + expected + "'");
  }
}

Json vector_to_json(const std::vector<double>& xs) {
  Json array = Json::array();
  for (const double x : xs) array.push_back(Json(x));
  return array;
}

std::vector<double> vector_from_json(const Json& json, const char* what) {
  if (!json.is_array()) schema_error(std::string(what) + " must be an array");
  std::vector<double> xs;
  xs.reserve(json.as_array().size());
  for (const Json& item : json.as_array()) {
    if (!item.is_number()) schema_error(std::string(what) + " must hold numbers");
    xs.push_back(item.as_number());
  }
  return xs;
}

/// \p json as an int in [lo, hi].  Anything else (not a number, a fraction,
/// a non-finite value, out of range) is a schema error naming \p what; the
/// check comes before the cast, which is undefined for non-finite or
/// out-of-range values and would silently truncate a fraction.
int int_from_json(const Json& json, int lo, int hi, const std::string& what) {
  if (!json.is_number()) schema_error(what + " must be an integer");
  const double v = json.as_number();
  if (!(v >= lo && v <= hi && v == std::trunc(v))) {
    char got[32];
    std::snprintf(got, sizeof got, "%.17g", v);
    schema_error(what + " must be an integer in [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "], got " + got);
  }
  return static_cast<int>(v);
}

Worth worth_from_int(int value) {
  switch (value) {
    case 1: return Worth::kLow;
    case 10: return Worth::kMedium;
    case 100: return Worth::kHigh;
    default: schema_error("worth must be 1, 10 or 100");
  }
}

}  // namespace

Json to_json(const SystemModel& model) {
  Json root = Json::object();
  root.set("format", Json(kModelFormat));

  if (!model.machine_names.empty()) {
    Json names = Json::array();
    for (const auto& name : model.machine_names) names.push_back(Json(name));
    root.set("machines", std::move(names));
  } else {
    root.set("machines", Json(model.num_machines()));
  }

  const auto m = static_cast<MachineId>(model.num_machines());
  Json bandwidth = Json::array();
  for (MachineId j1 = 0; j1 < m; ++j1) {
    Json row = Json::array();
    for (MachineId j2 = 0; j2 < m; ++j2) {
      const double w = model.network.bandwidth_mbps(j1, j2);
      row.push_back(w == kInfiniteBandwidth ? Json(nullptr) : Json(w));
    }
    bandwidth.push_back(std::move(row));
  }
  root.set("bandwidth_mbps", std::move(bandwidth));

  Json strings = Json::array();
  for (const auto& s : model.strings) {
    Json js = Json::object();
    if (!s.name.empty()) js.set("name", Json(s.name));
    js.set("period_s", Json(s.period_s));
    js.set("max_latency_s", Json(s.max_latency_s));
    js.set("worth", Json(s.worth_factor()));
    Json apps = Json::array();
    for (const auto& a : s.apps) {
      Json ja = Json::object();
      if (!a.name.empty()) ja.set("name", Json(a.name));
      ja.set("time_s", vector_to_json(a.nominal_time_s));
      ja.set("util", vector_to_json(a.nominal_util));
      ja.set("output_kbytes", Json(a.output_kbytes));
      apps.push_back(std::move(ja));
    }
    js.set("apps", std::move(apps));
    strings.push_back(std::move(js));
  }
  root.set("strings", std::move(strings));
  return root;
}

SystemModel system_model_from_json(const Json& json) {
  check_format(json, kModelFormat);
  SystemModel model;

  const Json& machines = json.at("machines");
  std::size_t machine_count = 0;
  if (machines.is_number()) {
    machine_count = static_cast<std::size_t>(
        int_from_json(machines, 0, std::numeric_limits<int>::max(), "machines"));
  } else if (machines.is_array()) {
    machine_count = machines.as_array().size();
    for (const Json& name : machines.as_array()) {
      if (!name.is_string()) schema_error("machine names must be strings");
      model.machine_names.push_back(name.as_string());
    }
  } else {
    schema_error("machines must be a count or an array of names");
  }

  // Shape first, so the count cannot size the network beyond the file.
  const Json& bandwidth = json.at("bandwidth_mbps");
  if (!bandwidth.is_array() || bandwidth.as_array().size() != machine_count) {
    schema_error("bandwidth_mbps must be an MxM matrix");
  }
  model.network = Network(machine_count);
  for (std::size_t j1 = 0; j1 < machine_count; ++j1) {
    const Json& row = bandwidth.as_array()[j1];
    if (!row.is_array() || row.as_array().size() != machine_count) {
      schema_error("bandwidth_mbps must be an MxM matrix");
    }
    for (std::size_t j2 = 0; j2 < machine_count; ++j2) {
      const Json& cell = row.as_array()[j2];
      model.network.set_bandwidth_mbps(
          static_cast<MachineId>(j1), static_cast<MachineId>(j2),
          cell.is_null() ? kInfiniteBandwidth : cell.as_number());
    }
  }

  const Json& strings = json.at("strings");
  if (!strings.is_array()) schema_error("strings must be an array");
  for (const Json& js : strings.as_array()) {
    AppString s;
    if (js.contains("name")) s.name = js.at("name").as_string();
    s.period_s = js.at("period_s").as_number();
    s.max_latency_s = js.at("max_latency_s").as_number();
    s.worth = worth_from_int(int_from_json(js.at("worth"), 1, 100, "worth"));
    const Json& apps = js.at("apps");
    if (!apps.is_array()) schema_error("apps must be an array");
    for (const Json& ja : apps.as_array()) {
      Application a;
      if (ja.contains("name")) a.name = ja.at("name").as_string();
      a.nominal_time_s = vector_from_json(ja.at("time_s"), "time_s");
      a.nominal_util = vector_from_json(ja.at("util"), "util");
      a.output_kbytes = ja.at("output_kbytes").as_number();
      s.apps.push_back(std::move(a));
    }
    model.strings.push_back(std::move(s));
  }

  const auto problems = model.validate();
  if (!problems.empty()) {
    schema_error("loaded model is invalid: " + problems.front());
  }
  return model;
}

Json to_json(const Allocation& alloc) {
  Json root = Json::object();
  root.set("format", Json(kAllocationFormat));
  Json mapping = Json::array();
  Json deployed = Json::array();
  for (std::size_t k = 0; k < alloc.num_strings(); ++k) {
    const auto sk = static_cast<StringId>(k);
    Json row = Json::array();
    for (std::size_t i = 0; i < alloc.string_size(sk); ++i) {
      row.push_back(Json(static_cast<int>(alloc.machine_of(sk, static_cast<AppIndex>(i)))));
    }
    mapping.push_back(std::move(row));
    deployed.push_back(Json(alloc.deployed(sk)));
  }
  root.set("mapping", std::move(mapping));
  root.set("deployed", std::move(deployed));
  return root;
}

Allocation allocation_from_json(const Json& json, const SystemModel& model) {
  check_format(json, kAllocationFormat);
  Allocation alloc(model);
  const Json& mapping = json.at("mapping");
  const Json& deployed = json.at("deployed");
  if (!mapping.is_array() || mapping.as_array().size() != model.num_strings() ||
      !deployed.is_array() || deployed.as_array().size() != model.num_strings()) {
    schema_error("allocation shape does not match the model");
  }
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    const Json& row = mapping.as_array()[k];
    if (!row.is_array() || row.as_array().size() != model.strings[k].size()) {
      schema_error("mapping row " + std::to_string(k) + " has the wrong length");
    }
    for (std::size_t i = 0; i < row.as_array().size(); ++i) {
      const int j = int_from_json(row.as_array()[i], -1,
                                  static_cast<int>(model.num_machines()) - 1,
                                  "mapping entry " + std::to_string(k) + "." +
                                      std::to_string(i));
      alloc.assign(static_cast<StringId>(k), static_cast<AppIndex>(i),
                   static_cast<MachineId>(j));
    }
    const Json& flag = deployed.as_array()[k];
    if (!flag.is_bool()) schema_error("deployed entries must be booleans");
    if (flag.as_bool() && !alloc.fully_mapped(static_cast<StringId>(k))) {
      schema_error("string " + std::to_string(k) +
                   " is marked deployed but not fully mapped");
    }
    alloc.set_deployed(static_cast<StringId>(k), flag.as_bool());
  }
  return alloc;
}

void save_system_model(const std::string& path, const SystemModel& model) {
  util::write_json_file(path, to_json(model));
}

SystemModel load_system_model(const std::string& path) {
  return system_model_from_json(util::read_json_file(path));
}

void save_allocation(const std::string& path, const Allocation& alloc) {
  util::write_json_file(path, to_json(alloc));
}

Allocation load_allocation(const std::string& path, const SystemModel& model) {
  return allocation_from_json(util::read_json_file(path), model);
}

}  // namespace tsce::model
