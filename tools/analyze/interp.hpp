/// \file interp.hpp
/// The two interprocedural rule visitors of tsce_analyze, written against
/// the project call graph (callgraph.hpp):
///
///   transitive-hot-alloc  allocation sites (new, make_unique/make_shared,
///                         push_back/emplace_back with no same-file reserve)
///                         in a TSCE_HOT frame — lambdas in its body included
///                         — or in any function it reaches through a call
///                         chain;
///   rng-stream-escape     a util::Rng& parameter reaching a function that is
///                         also reachable from a ThreadPool submission site
///                         without a Rng::stream derivation on the path.
///
/// Findings come back raw; analyze_project routes them through each file's
/// suppression list before they become diagnostics.

#pragma once

#include <vector>

#include "analyze/callgraph.hpp"
#include "analyze/rules.hpp"

namespace tsce::analyze {

/// \p stats, when non-null, receives one wall-time row per rule (--stats).
[[nodiscard]] std::vector<Finding> run_interprocedural_rules(
    const std::vector<FileUnit>& units, const CallGraph& graph,
    std::vector<RuleStat>* stats = nullptr);

}  // namespace tsce::analyze
