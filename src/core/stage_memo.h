#ifndef CHARLES_CORE_STAGE_MEMO_H_
#define CHARLES_CORE_STAGE_MEMO_H_

/// \file
/// \brief The stage memo: phase products an EngineContext keeps across runs.
///
/// Two kinds of entry share one LRU cache, each under a 64-bit key that
/// hashes exactly what its stages read (docs/architecture.md#stage-memo):
///
///  - **search** entries (phases 1–2): the shortlist moments, the pooled
///    labelings, the T-subset names and the partitions, keyed by the aligned
///    transformation and condition columns, y_old/y_new, Setup's products,
///    and the phase-1/2 option fields;
///  - **ranking** entries (phase 3): one compact RankRecord per work item,
///    keyed by the search key plus the leaf-fit fingerprint. They hold no
///    row sets and no summaries; a hit re-ranks the records and rebuilds
///    only the winners from the leaf-fit cache.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/partition_finder.h"
#include "core/ranking.h"
#include "linalg/suffstats.h"
#include "parallel/sharded_cache.h"

namespace charles {

/// One surviving partitioning of phase 2 and the condition attributes (C)
/// its tree was induced on.
struct PartitionEntry {
  PartitionCandidate candidate;
  std::vector<std::string> condition_attrs;
};

/// Phases 1–2 products, shared read-only by every run that hits them.
struct SearchSpaceMemo {
  std::shared_ptr<const SufficientStats> shortlist_stats;
  std::vector<std::vector<int>> labelings;
  std::vector<std::vector<std::string>> t_attr_names;
  std::shared_ptr<const std::vector<PartitionEntry>> partitions;
};

/// One memo entry: `search` is set on phase-1/2 entries, `records` on
/// phase-3 entries.
struct StageMemoValue {
  std::shared_ptr<const SearchSpaceMemo> search;
  std::shared_ptr<const std::vector<RankRecord>> records;
};

/// The context's stage memo. Values are handles, so a lookup copies two
/// pointers and a hit stays valid after the entry is evicted.
using StageMemoCache = ShardedCache<uint64_t, StageMemoValue>;

}  // namespace charles

#endif  // CHARLES_CORE_STAGE_MEMO_H_
