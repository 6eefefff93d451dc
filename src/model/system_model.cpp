#include "model/system_model.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tsce::model {

std::size_t SystemModel::num_apps() const noexcept {
  std::size_t n = 0;
  for (const auto& s : strings) n += s.size();
  return n;
}

int SystemModel::total_worth_available() const noexcept {
  int w = 0;
  for (const auto& s : strings) w += s.worth_factor();
  return w;
}

namespace {
void check(std::vector<std::string>& problems, bool ok, const char* fmt, auto... args) {
  if (ok) return;
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  problems.emplace_back(buf);
}
}  // namespace

std::vector<std::string> SystemModel::validate() const {
  std::vector<std::string> problems;
  const std::size_t m = num_machines();
  check(problems, m > 0, "system has no machines");
  if (!machine_names.empty()) {
    check(problems, machine_names.size() == m,
          "machine_names size %zu != machine count %zu", machine_names.size(), m);
  }
  for (std::size_t j1 = 0; j1 < m; ++j1) {
    for (std::size_t j2 = 0; j2 < m; ++j2) {
      const double w = network.bandwidth_mbps(static_cast<MachineId>(j1),
                                              static_cast<MachineId>(j2));
      check(problems, w > 0.0, "route %zu->%zu has nonpositive bandwidth", j1, j2);
    }
  }
  for (std::size_t k = 0; k < strings.size(); ++k) {
    const AppString& s = strings[k];
    check(problems, !s.apps.empty(), "string %zu has no applications", k);
    check(problems, s.period_s > 0.0 && std::isfinite(s.period_s),
          "string %zu period is not positive and finite", k);
    check(problems, s.max_latency_s > 0.0 && std::isfinite(s.max_latency_s),
          "string %zu max latency is not positive and finite", k);
    const int iw = s.worth_factor();
    check(problems, iw == 1 || iw == 10 || iw == 100,
          "string %zu worth %d not in {1,10,100}", k, iw);
    for (std::size_t i = 0; i < s.apps.size(); ++i) {
      const Application& a = s.apps[i];
      check(problems, a.nominal_time_s.size() == m,
            "string %zu app %zu nominal_time size %zu != %zu", k, i,
            a.nominal_time_s.size(), m);
      check(problems, a.nominal_util.size() == m,
            "string %zu app %zu nominal_util size %zu != %zu", k, i,
            a.nominal_util.size(), m);
      for (std::size_t j = 0; j < a.nominal_time_s.size() && j < m; ++j) {
        const double t = a.nominal_time_s[j];
        check(problems, t > 0.0 && std::isfinite(t),
              "string %zu app %zu time on machine %zu is not positive and finite",
              k, i, j);
      }
      for (std::size_t j = 0; j < a.nominal_util.size() && j < m; ++j) {
        const double u = a.nominal_util[j];
        check(problems, u > 0.0 && u <= 1.0,
              "string %zu app %zu utilization %.3f outside (0,1] on machine %zu", k,
              i, u, j);
      }
      check(problems, a.output_kbytes >= 0.0 && std::isfinite(a.output_kbytes),
            "string %zu app %zu output is not non-negative and finite", k, i);
    }
  }
  return problems;
}

SystemModelBuilder& SystemModelBuilder::uniform_bandwidth(double mbps) {
  const auto m = static_cast<MachineId>(model_.num_machines());
  for (MachineId j1 = 0; j1 < m; ++j1) {
    for (MachineId j2 = 0; j2 < m; ++j2) {
      if (j1 != j2) model_.network.set_bandwidth_mbps(j1, j2, mbps);
    }
  }
  return *this;
}

SystemModelBuilder& SystemModelBuilder::bandwidth(MachineId j1, MachineId j2,
                                                  double mbps) {
  model_.network.set_bandwidth_mbps(j1, j2, mbps);
  return *this;
}

SystemModelBuilder& SystemModelBuilder::machine_name(MachineId j, std::string name) {
  if (model_.machine_names.empty()) {
    model_.machine_names.resize(model_.num_machines());
  }
  model_.machine_names.at(static_cast<std::size_t>(j)) = std::move(name);
  return *this;
}

SystemModelBuilder& SystemModelBuilder::begin_string(double period_s,
                                                     double max_latency_s, Worth worth,
                                                     std::string name) {
  AppString s;
  s.period_s = period_s;
  s.max_latency_s = max_latency_s;
  s.worth = worth;
  s.name = std::move(name);
  model_.strings.push_back(std::move(s));
  return *this;
}

SystemModelBuilder& SystemModelBuilder::add_app(double time_s, double util,
                                                double output_kbytes,
                                                std::string name) {
  const std::size_t m = model_.num_machines();
  return add_app(std::vector<double>(m, time_s), std::vector<double>(m, util),
                 output_kbytes, std::move(name));
}

SystemModelBuilder& SystemModelBuilder::add_app(std::vector<double> time_s,
                                                std::vector<double> util,
                                                double output_kbytes,
                                                std::string name) {
  if (model_.strings.empty()) {
    throw std::logic_error("add_app called before begin_string");
  }
  Application a;
  a.nominal_time_s = std::move(time_s);
  a.nominal_util = std::move(util);
  a.output_kbytes = output_kbytes;
  a.name = std::move(name);
  model_.strings.back().apps.push_back(std::move(a));
  return *this;
}

SystemModel SystemModelBuilder::build() {
  auto problems = model_.validate();
  if (!problems.empty()) {
    throw std::invalid_argument("invalid SystemModel: " + problems.front());
  }
  return std::move(model_);
}

}  // namespace tsce::model
