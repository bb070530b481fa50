// Copyright 2026 The claks Authors.

#include "core/shard.h"

#include <algorithm>
#include <condition_variable>
#include <optional>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace claks {

uint32_t ShardOfNode(uint32_t node, size_t num_shards) {
  if (num_shards <= 1) return 0;
  // splitmix32 finalizer: full-avalanche integer hash, so consecutive
  // dense ids (one table's tuples) spread uniformly across shards.
  uint32_t x = node;
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return static_cast<uint32_t>(x % num_shards);
}

size_t EffectiveShards(size_t requested) {
  return requested == 0 ? 1 : requested;
}

namespace {

size_t IntraQueryThreads() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min<size_t>(hw, 16);
}

}  // namespace

ShardContext::ShardContext()
    : pool_(IntraQueryThreads(), /*queue_capacity=*/1024) {}

void RunAndWait(ThreadPool* pool,
                std::vector<std::function<void()>> tasks) {
  CLAKS_CHECK(pool != nullptr);
  struct Rendezvous {
    Mutex mutex;
    std::condition_variable done;
    size_t outstanding CLAKS_GUARDED_BY(mutex) = 0;
  };
  Rendezvous rendezvous;
  {
    MutexLock lock(&rendezvous.mutex);
    rendezvous.outstanding = tasks.size();
  }
  for (std::function<void()>& task : tasks) {
    pool->Submit([&rendezvous, task = std::move(task)] {
      task();
      MutexLock lock(&rendezvous.mutex);
      if (--rendezvous.outstanding == 0) rendezvous.done.notify_all();
    });
  }
  MutexLock lock(&rendezvous.mutex);
  while (rendezvous.outstanding != 0) rendezvous.done.wait(lock.native());
}

Result<std::vector<SearchHit>> AnalyzeTreesParallel(
    const KeywordSearchEngine& engine, const std::vector<TupleTree>& trees,
    const std::vector<KeywordMatches>& matches,
    const std::map<TupleId, std::string>& keyword_of,
    const SearchOptions& options, ThreadPool* pool) {
  CLAKS_CHECK(pool != nullptr);
  std::vector<std::optional<SearchHit>> slots(trees.size());
  std::vector<Status> statuses(trees.size());
  // Strided chunks keep neighbours (similar lengths, similar analysis
  // cost) spread across tasks; slots preserve input order regardless of
  // completion order.
  size_t chunks = std::min(trees.size(), pool->num_threads() * 4);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    tasks.push_back([&, c] {
      for (size_t i = c; i < trees.size(); i += chunks) {
        Result<SearchHit> hit =
            engine.AnalyzeTree(trees[i], matches, keyword_of, options);
        if (hit.ok()) {
          slots[i] = std::move(hit).ValueUnsafe();
        } else {
          statuses[i] = hit.status();
        }
      }
    });
  }
  RunAndWait(pool, std::move(tasks));
  for (size_t i = 0; i < trees.size(); ++i) {
    CLAKS_RETURN_NOT_OK(statuses[i]);
  }
  std::vector<SearchHit> hits;
  hits.reserve(slots.size());
  for (std::optional<SearchHit>& slot : slots) {
    hits.push_back(std::move(*slot));
  }
  return hits;
}

}  // namespace claks
