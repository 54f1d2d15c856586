// Fig 14: OST stripe-count usage per science domain (min / average / max
// over every file row in every snapshot). Quantifies how many domains
// depart from the default stripe count of 4 — the paper's Observation 6.
#pragma once

#include <string>
#include <vector>

#include "study/resolve.h"
#include "study/runner.h"
#include "util/stats.h"

namespace spider {

struct StripingResult {
  std::vector<StreamingStats> by_domain;  // stripe counts of file rows
  StreamingStats overall;
  /// Domains whose files ever leave the default stripe count of 4.
  std::size_t domains_tuning = 0;
  std::size_t active_domains = 0;
  std::uint32_t max_stripe = 0;
};

class StripingAnalyzer : public StudyAnalyzer {
 public:
  explicit StripingAnalyzer(const Resolver& resolver);

  ColumnMask columns_needed() const override {
    return kColMaskOsts | kColMaskGid | kColMaskMode;
  }
  std::unique_ptr<ScanChunkState> make_chunk_state() const override;
  void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                     const ScanMorsel& m) override;
  void merge(const WeekObservation& obs, ScanStateList states) override;

  void finish() override;

  const StripingResult& result() const { return result_; }
  std::string render() const;

 private:
  const Resolver& resolver_;
  StripingResult result_;
};

}  // namespace spider
