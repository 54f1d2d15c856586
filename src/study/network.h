// §4.3: the file-generation network.
//   Fig 18(b) — degree distribution and its power-law fit;
//   Table 3   — connected-component size histogram, the giant component's
//               composition (users/projects), its exact diameter, and the
//               network center (radius, center entities);
//   Fig 19    — per-domain share of the giant component and per-domain
//               probability of belonging to it.
// Consumes the ParticipationAnalyzer's observed membership edges, which are
// complete before any finish() runs, so the roster order does not matter;
// without participation in the roster the results are empty.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "graph/bipartite.h"
#include "graph/components.h"
#include "graph/metrics.h"
#include "study/participation.h"

namespace spider {

struct NetworkResult {
  std::size_t users = 0, projects = 0, edges = 0;

  LinearFit power_law;  // log-log degree fit (slope < 0)

  std::map<std::uint32_t, std::uint32_t> component_histogram;
  std::size_t component_count = 0;
  std::size_t giant_vertices = 0;
  std::size_t giant_users = 0;
  std::size_t giant_projects = 0;
  std::uint32_t giant_diameter = 0;
  std::uint32_t giant_radius = 0;
  std::size_t giant_center_entities = 0;
  /// Composition of the network center (vertices attaining the radius):
  /// the paper found 2 stf + 2 csc + 1 env + 1 chp projects and six
  /// staff/postdoc users there — the facility's liaison structure.
  std::size_t center_users = 0;
  std::size_t center_projects = 0;
  /// Center projects per domain (index into domain_profiles()).
  std::vector<std::size_t> center_projects_by_domain;

  /// Fig 19(a): per-domain share of the giant component's projects.
  std::vector<double> giant_share_by_domain;
  /// Fig 19(b): per-domain P(active project is in the giant component).
  std::vector<double> giant_probability_by_domain;
};

class NetworkAnalyzer : public StudyAnalyzer {
 public:
  NetworkAnalyzer(const Resolver& resolver,
                  const ParticipationAnalyzer& participation)
      : resolver_(resolver), participation_(participation) {}

  /// Pure post-processing of participation's membership: reads no columns
  /// itself (participation requests what it needs).
  ColumnMask columns_needed() const override { return kColMaskNone; }
  void observe(const WeekObservation&) override {}  // pure post-processing
  void finish() override;

  const NetworkResult& result() const { return result_; }
  std::string render() const;

 private:
  const Resolver& resolver_;
  const ParticipationAnalyzer& participation_;
  NetworkResult result_;
};

}  // namespace spider
