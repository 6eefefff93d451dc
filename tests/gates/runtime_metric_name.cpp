/// Compile-fail fixture for the metric-name registry: a name known only at
/// run time cannot become an obs::MetricName, whose constructor is
/// consteval, so there is no way to register an unchecked name.

#include <string_view>

#include "obs/trace.hpp"

void trace_named(std::string_view name) { tsce::obs::trace_event(name, {}); }
