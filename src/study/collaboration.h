// Fig 20 / §4.3.3: collaboration across users. Two users collaborate when
// they generated files in the same project; the per-domain column is the
// share of collaborating pairs whose shared projects include that domain.
// Staff (stf) projects are excluded, as in the paper (liaison staff would
// dilute the science-collaboration signal). Consumes the participation
// analyzer's observed membership edges, which are complete before any
// finish() runs, so the roster order does not matter; without
// participation in the roster the results are empty.
#pragma once

#include <string>

#include "graph/bipartite.h"
#include "study/participation.h"

namespace spider {

struct CollaborationResult {
  CollaborationStats stats;
  /// The extreme pair's shared-project domains, e.g. "5x cli + 1x csc".
  std::string max_pair_description;
};

class CollaborationAnalyzer : public StudyAnalyzer {
 public:
  CollaborationAnalyzer(const Resolver& resolver,
                        const ParticipationAnalyzer& participation)
      : resolver_(resolver), participation_(participation) {}

  /// Pure post-processing of participation's membership: reads no columns
  /// itself (participation requests what it needs).
  ColumnMask columns_needed() const override { return kColMaskNone; }
  void observe(const WeekObservation&) override {}  // pure post-processing
  void finish() override;

  const CollaborationResult& result() const { return result_; }
  std::string render() const;

 private:
  const Resolver& resolver_;
  const ParticipationAnalyzer& participation_;
  CollaborationResult result_;
};

}  // namespace spider
