// The one place the benchmark reads the library's cache counter
// structs (Session::Stats and the daemon's `status` RPC, which
// serializes the same struct). Everything else reads public result
// types: CompileResult::cacheHit, ExplorationRow, Pipeline::provenance,
// OptimizeReport, eval::OpCounts. When the counter structs are replaced
// by another mechanism, only this header changes.
#pragma once

#include "core/Session.h"
#include "support/Json.h"

#include <cstdint>

namespace perfbench {

struct CacheCounters {
  std::int64_t stageHits = 0;
  std::int64_t stageMisses = 0;
  std::int64_t flowHits = 0;
  std::int64_t flowMisses = 0;
};

inline CacheCounters countersOf(const cfd::Session& session) {
  const cfd::Session::Stats stats = session.stats();
  return {stats.stageCache.hits, stats.stageCache.misses,
          stats.flowCache.hits, stats.flowCache.misses};
}

/// From the result object of a daemon `status` response.
inline CacheCounters countersOfStatus(const cfd::json::Value& status) {
  const cfd::json::Value& stats = status.at("stats");
  return {stats.at("stage_cache").at("hits").asInt(),
          stats.at("stage_cache").at("misses").asInt(),
          stats.at("flow_cache").at("hits").asInt(),
          stats.at("flow_cache").at("misses").asInt()};
}

} // namespace perfbench
