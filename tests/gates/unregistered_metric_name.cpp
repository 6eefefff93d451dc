/// Compile-fail fixture for the metric-name registry: "decode.cals" is not
/// in obs::names::kAll, so obs::MetricName's consteval constructor rejects
/// it and the build fails.

#include "obs/metrics.hpp"

void count_decodes() {
  tsce::obs::MetricsRegistry::instance().counter("decode.cals").add();
}
