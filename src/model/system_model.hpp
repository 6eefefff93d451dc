/// \file system_model.hpp
/// The complete TSCE instance: machine suite, network, and the set of
/// application strings considered for mapping.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "model/app_string.hpp"
#include "model/network.hpp"
#include "model/types.hpp"

namespace tsce::model {

struct SystemModel {
  Network network;
  std::vector<AppString> strings;
  /// Optional machine labels (size M when present).
  std::vector<std::string> machine_names;

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return network.num_machines();
  }
  [[nodiscard]] std::size_t num_strings() const noexcept { return strings.size(); }

  /// Total application count across all strings.
  [[nodiscard]] std::size_t num_apps() const noexcept;

  /// Sum of worth factors over all strings (the ceiling for total worth).
  [[nodiscard]] int total_worth_available() const noexcept;

  /// Structural validation: consistent per-machine vectors, positive finite
  /// periods, latencies and times, utilizations in (0,1], nonnegative finite
  /// outputs, positive bandwidths (+inf allowed: an intra-machine or
  /// unlimited route).  Returns human-readable problem descriptions (empty =
  /// valid).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Fluent construction helper for examples and tests.
///
///   SystemModel m = SystemModelBuilder(3)
///       .uniform_bandwidth(5.0)
///       .add_string(StringSpec{...})
///       .build();
class SystemModelBuilder {
 public:
  explicit SystemModelBuilder(std::size_t num_machines)
      : model_{Network(num_machines), {}, {}} {}

  SystemModelBuilder& uniform_bandwidth(double mbps);
  SystemModelBuilder& bandwidth(MachineId j1, MachineId j2, double mbps);
  SystemModelBuilder& machine_name(MachineId j, std::string name);

  /// Starts a new string; apps are appended with add_app.
  SystemModelBuilder& begin_string(double period_s, double max_latency_s,
                                   Worth worth = Worth::kLow, std::string name = {});
  /// Adds an application whose nominal time/util are identical on every
  /// machine (homogeneous shortcut).
  SystemModelBuilder& add_app(double time_s, double util, double output_kbytes = 0.0,
                              std::string name = {});
  /// Adds an application with per-machine times/utils.
  SystemModelBuilder& add_app(std::vector<double> time_s, std::vector<double> util,
                              double output_kbytes = 0.0, std::string name = {});

  SystemModelBuilder& add_string(AppString s) {
    model_.strings.push_back(std::move(s));
    return *this;
  }

  [[nodiscard]] SystemModel build();

 private:
  SystemModel model_;
};

}  // namespace tsce::model
