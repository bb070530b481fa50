// Copyright 2026 The claks Authors.
//
// Intra-query sharding of the materialized methods: with
// SearchOptions::shards = N > 1, kEnumerate splits its candidate
// enumeration over N source-seed shards (EnumerateBetweenSetsSharded in
// core/engine.cc) and every materialized method analyses its candidate
// trees in parallel (AnalyzeTreesParallel). Both fan out on one
// engine-owned ShardContext pool and recombine in a fixed order, so
// results are byte-identical to shards == 1.
//
// The partition hashes dense node ids (ShardOfNode), so a tuple's shard
// is pure arithmetic and independent of the table-major id layout.
//
// Two-keyword kStream does not fan out: it runs the one serial
// ConnectionStream (core/topk.h) at every shard count, because its cost
// is the serial expansion count and splitting the seed space only added
// expansions.
//
// Thread model: shard tasks run on the ShardContext pool (never on the
// service's bounded admission pool — a query task spawning sub-tasks on
// its own pool could deadlock on a full queue; shard tasks are pure
// compute and never block). AnalyzeTree is const and data-race-free on a
// warmed engine, so tasks analyse candidates in parallel.

#ifndef CLAKS_CORE_SHARD_H_
#define CLAKS_CORE_SHARD_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"

namespace claks {

/// Shard of a dense node id under an N-way partition. Stateless integer
/// hash (splitmix-style finalizer) — uniform across shards regardless of
/// the table-major id layout, identical on every run and platform.
uint32_t ShardOfNode(uint32_t node, size_t num_shards);

/// Requested shard count normalized for execution: 0 (only reachable
/// through the unvalidated legacy facade) behaves like 1, everything
/// else passes through. 1 means the single-threaded unsharded path.
size_t EffectiveShards(size_t requested);

/// Engine-owned context for intra-query parallelism: one dedicated
/// ThreadPool shared by every sharded query on the engine. Created
/// lazily (first sharded query) so unsharded workloads never start
/// threads.
class ShardContext {
 public:
  ShardContext();
  ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
};

/// Runs every task on `pool` and blocks until all of them finished.
/// Unlike ThreadPool::Drain this waits only for these tasks — the pool
/// is shared across concurrent queries, so draining it would wait on
/// strangers. Tasks run concurrently; exceptions must not escape them.
void RunAndWait(ThreadPool* pool, std::vector<std::function<void()>> tasks);

/// Order-preserving parallel analysis: AnalyzeTree for every tree on the
/// shard pool, results in input order, first error (by input index)
/// wins. The materialized methods' share of intra-query parallelism —
/// candidate generation stays method-specific, but analysis dominates
/// and parallelizes identically for all of them.
Result<std::vector<SearchHit>> AnalyzeTreesParallel(
    const KeywordSearchEngine& engine, const std::vector<TupleTree>& trees,
    const std::vector<KeywordMatches>& matches,
    const std::map<TupleId, std::string>& keyword_of,
    const SearchOptions& options, ThreadPool* pool);

}  // namespace claks

#endif  // CLAKS_CORE_SHARD_H_
