/// \file upper_bound.hpp
/// Mathematical performance upper bound via fractional mappings (paper §7).
///
/// Applications may be split into per-machine fractions x[i,k,j]; output
/// transfers split into per-route fractions y[i,k,j1,j2].  Flow-conservation
/// constraints tie consecutive applications together and the stage-one
/// capacity constraints bound every machine and route.  The LP is built in
/// arc-flow form, over y alone (x is a linear image of the flows).  The resulting LP's
/// optimum dominates the best integral allocation, so it upper-bounds every
/// heuristic:
///
/// * scenarios 1-2 (partial mapping): maximize deployed worth with
///   sum_j x[1,k,j] <= 1;
/// * scenario 3 (complete mapping): force full deployment and maximize the
///   system slackness lambda.
///
/// The paper solved these LPs with Lingo 9.0; here the in-repo simplex
/// (simplex.hpp) is used — see DESIGN.md for the substitution note, including
/// the objective-function discrepancy (kPaperLiteral weights strings by their
/// length; kTotalWorth matches the paper's "total worth" metric and is the
/// default).

#pragma once

#include <cstddef>
#include <vector>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "model/system_model.hpp"

namespace tsce::lp {

enum class UbObjective {
  /// Maximize sum over strings of I[k] * f_k (f_k = deployed fraction).
  kTotalWorth,
  /// The paper's literal formula: sum over strings, apps, machines of
  /// I[k] * x[i,k,j] (weights each string by its application count).
  kPaperLiteral,
};

struct UpperBoundOptions {
  UbObjective objective = UbObjective::kTotalWorth;
  SimplexOptions simplex;
};

struct UpperBoundResult {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Worth bound (partial mode) or slackness bound (complete mode).
  double value = 0.0;
  /// Deployed fraction f_k per string (worth mode only).
  std::vector<double> string_fractions;
  /// Shadow price of each machine's capacity constraint (f): the marginal
  /// objective gain per unit of additional CPU capacity.  The resource with
  /// the largest shadow price is the system bottleneck.
  std::vector<double> machine_shadow_price;
  /// Shadow price of each route's capacity constraint (g), row-major M x M
  /// (diagonal zero).
  std::vector<double> route_shadow_price;
  std::size_t lp_rows = 0;
  std::size_t lp_cols = 0;
  std::size_t iterations = 0;
  /// Basis refactorisations performed by the sparse engine.
  std::size_t refactorisations = 0;
};

/// Builds the fractional-mapping LP in arc-flow form: the paper's (a)–(g)
/// LP projected onto the route fractions.  \p complete selects scenario-3
/// mode (full deployment + slackness objective).
///
/// Columns, per string: a string with at least one edge has only its arc
/// variables y[i,k,j1,j2] in [0, +inf) (edge-major, then source and
/// destination machine); a single-app string has its M placement columns
/// x[k,j] in [0,1].  The slackness variable lambda comes last.  The paper's
/// x is recovered from the flows: app 0's fraction on j is edge 0's out-flow
/// from j, app i >= 1's is edge i-1's in-flow to j, and f_k is edge 0's
/// total flow.
///
/// Row layout: (a) Q deployment rows, one flow-conservation row per
/// (internal app, machine), (f) M machine-capacity rows, then (g) route-
/// capacity rows — the (g) block is **omitted entirely** when no string has
/// an inter-app edge (single-app workloads, e.g. the TDM-client fleet tier),
/// which drops M(M-1) rows from fleet-scale instances.  With x substituted
/// by the flows, (d) and (e) reduce to the conservation rows, and (b) and
/// the bounds y <= 1 follow from them and (a), so none of these is emitted.
/// Use upper_bound_route_rows() to recover the layout when reading duals
/// positionally.
[[nodiscard]] LpProblem build_upper_bound_lp(const model::SystemModel& model,
                                             bool complete,
                                             UbObjective objective);

/// Same, assembling into \p problem (cleared first) so the triplet/bound
/// vectors' capacity is reused across repeated builds.
void build_upper_bound_lp_into(LpProblem& problem, const model::SystemModel& model,
                               bool complete, UbObjective objective);

/// Number of (g) route-capacity rows build_upper_bound_lp emits for
/// \p model: M(M-1) when any string has at least two applications, else 0.
[[nodiscard]] std::size_t upper_bound_route_rows(const model::SystemModel& model);

/// Upper bound on total worth for partial resource allocation (scenarios 1-2).
[[nodiscard]] UpperBoundResult upper_bound_worth(const model::SystemModel& model,
                                                 UpperBoundOptions options = {});

/// Upper bound on system slackness for complete allocation (scenario 3).
/// status == kInfeasible means even fractional full deployment is impossible.
[[nodiscard]] UpperBoundResult upper_bound_slackness(const model::SystemModel& model,
                                                     UpperBoundOptions options = {});

/// Reusable upper-bound evaluator for repeated solves over same-shaped
/// models (Monte-Carlo replicates, what-if perturbations).  Reuses the
/// assembled LpProblem's buffers across calls; every solve starts cold, so
/// results and pivot paths never depend on call order.  Not thread-safe; use
/// one instance per worker.
class UpperBoundSolver {
 public:
  explicit UpperBoundSolver(UpperBoundOptions options = {})
      : options_(options) {}

  [[nodiscard]] UpperBoundResult worth(const model::SystemModel& model);
  [[nodiscard]] UpperBoundResult slackness(const model::SystemModel& model);

 private:
  UpperBoundResult run_reusable(const model::SystemModel& model, bool complete);

  UpperBoundOptions options_;
  LpProblem problem_;
};

}  // namespace tsce::lp
