// Copyright 2026 The claks Authors.
//
// The repository benchmark: workloads over the public APIs of service/,
// core/, relational/ and storage/, each with a correctness gate,
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced run. perfbench/run.py builds this program and forwards its
// arguments; perfbench/NOTES.md explains every workload and metric.
//
//   perfbench --workload interactive|analytic|churn --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--source-sha SHA]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end with --trace 0, per-layer with --trace 1). The lines
// before it carry the host block, the seed and the exact work counters.
// A failed correctness check prints correct=false and exits 1.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cursor.h"
#include "core/engine.h"
#include "datasets/company_gen.h"
#include "observability/trace.h"
#include "relational/database.h"
#include "relational/delta.h"
#include "service/search_service.h"
#include "storage/snapshot.h"
#include "text/matcher.h"

namespace {

using claks::Database;
using claks::KeywordSearchEngine;
using claks::SearchHit;
using claks::SearchMethod;
using claks::SearchOptions;
using claks::SearchService;
using claks::ServiceOptions;
using claks::Status;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed workload parameters (NOTES.md explains each choice).
// ---------------------------------------------------------------------------

constexpr size_t kTopK = 10;
constexpr size_t kMaxRdbEdges = 3;
constexpr size_t kTmax = 4;
constexpr size_t kDataScale = 100;          // every workload
constexpr size_t kInteractiveCache = 128;   // result-cache entries
constexpr size_t kClients = 2;              // interactive / churn readers
constexpr size_t kSetupReps = 41;           // 100x service builds per run
constexpr double kWritesPerSecond = 50.0;   // churn writer schedule
constexpr size_t kCompactMinOps = 53;       // compaction every 40 writes
constexpr size_t kVerifyQueries = 16;       // verified answers per reader
constexpr size_t kReplayQueries = 150;      // traced engine replay
constexpr size_t kReplayWrites = 96;        // traced derive replay
constexpr size_t kStorageCycles = 15;       // traced save/load/first query
constexpr size_t kCounterQueries = 9;       // analytic exact-counter pass

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// CPU time the hypervisor took from this machine (steal) and the total,
/// in clock ticks, from /proc/stat.
std::pair<uint64_t, uint64_t> CpuSteal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t total = 0, steal = 0, v = 0;
  stat >> cpu;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

// ---------------------------------------------------------------------------
// Deterministic randomness: every input derives from --seed through
// splitmix64-seeded mt19937_64 (whose output sequence the standard fixes).
// ---------------------------------------------------------------------------

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rand {
 public:
  Rand(uint64_t seed, uint64_t stream) : gen_(SplitMix(seed * 1000003 + stream)) {}
  double Unit() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  size_t Index(size_t n) { return static_cast<size_t>(gen_() % n); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Index(i)]);
  }

 private:
  std::mt19937_64 gen_;
};

// The company generator's 36-word vocabulary (datasets/company_gen.cc).
const char* kTopics[] = {"xml",       "databases", "retrieval", "networks",
                         "compilers", "graphics",  "security",  "statistics",
                         "robotics",  "semantics", "indexing",  "ranking"};
const char* kSurnames[] = {"smith",  "miller",   "walker",   "johnson",
                           "virtanen", "korhonen", "nieminen", "laine",
                           "garcia", "kim",      "chen",     "novak"};
const char* kGivenNames[] = {"john",  "barbara", "melina", "alice",
                             "theodore", "maria", "juha",  "anna",
                             "pekka", "liisa",   "igor",   "wei"};

/// One query: two vocabulary words, and the class of the pair — the two
/// word kinds (topic, surname, given name) as one of TT, TS, TG, SS, SG,
/// GG. The classes differ in cost by an order of magnitude (NOTES.md).
struct QueryPair {
  std::string text;
  int klass = 0;
};

constexpr int kNumPairClasses = 6;

/// All 630 unordered two-word pairs of the vocabulary.
std::vector<QueryPair> Pairs() {
  std::vector<std::pair<std::string, int>> words;  // kind 0 T, 1 S, 2 G
  for (const char* w : kTopics) words.push_back({w, 0});
  for (const char* w : kSurnames) words.push_back({w, 1});
  for (const char* w : kGivenNames) words.push_back({w, 2});
  const int kClassOf[3][3] = {{0, 1, 2}, {1, 3, 4}, {2, 4, 5}};
  std::vector<QueryPair> pairs;
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t j = i + 1; j < words.size(); ++j) {
      pairs.push_back({words[i].first + " " + words[j].first,
                       kClassOf[words[i].second][words[j].second]});
    }
  }
  return pairs;
}

/// A seeded, class-stratified order of `pairs`: the seed shuffles the
/// pairs within each class, while the interleaving of classes over the
/// positions is fixed — position r goes to the class furthest below its
/// population share of the first r + 1 positions. Every prefix therefore
/// holds each class at its share, so the cost mix of a run does not
/// depend on which pairs the seed happens to put first.
std::vector<std::string> StratifiedOrder(const std::vector<QueryPair>& pairs,
                                         uint64_t seed, uint64_t stream) {
  std::vector<std::vector<std::string>> groups(kNumPairClasses);
  for (const QueryPair& p : pairs) groups[p.klass].push_back(p.text);
  Rand rng(seed, stream);
  for (auto& group : groups) rng.Shuffle(&group);
  std::vector<size_t> taken(kNumPairClasses, 0);
  std::vector<std::string> order;
  const double n = static_cast<double>(pairs.size());
  for (size_t r = 0; r < pairs.size(); ++r) {
    int best = -1;
    double best_deficit = 0;
    for (int c = 0; c < kNumPairClasses; ++c) {
      if (taken[c] == groups[c].size()) continue;
      double deficit = groups[c].size() * (r + 1) / n - taken[c];
      if (best < 0 || deficit > best_deficit + 1e-12) {
        best = c;
        best_deficit = deficit;
      }
    }
    order.push_back(groups[best][taken[best]++]);
  }
  return order;
}

/// Zipf(s = 1) over the 630 pairs, popularity order from the seed
/// (StratifiedOrder). Every client shares the order and draws
/// independently.
class ZipfQueries {
 public:
  explicit ZipfQueries(uint64_t seed)
      : pairs_(StratifiedOrder(Pairs(), seed, 1)) {
    double sum = 0.0;
    for (size_t r = 0; r < pairs_.size(); ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  const std::string& Draw(Rand* rng) const {
    double u = rng->Unit();
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return pairs_[std::min(r, pairs_.size() - 1)];
  }

 private:
  std::vector<std::string> pairs_;
  std::vector<double> cdf_;
};

SearchOptions StreamOptions() {
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.ranker = claks::RankerKind::kCloseFirst;
  options.top_k = kTopK;
  options.max_rdb_edges = kMaxRdbEdges;
  return options;
}

SearchOptions AnalyticOptions(SearchMethod method) {
  SearchOptions options;
  options.method = method;
  options.ranker = claks::RankerKind::kCloseFirst;
  options.top_k = kTopK;
  options.max_rdb_edges = kMaxRdbEdges;
  options.tmax = kTmax;
  return options;
}

// ---------------------------------------------------------------------------
// Answer identity: hits compare down to the rendered string and every
// ranking-relevant field.
// ---------------------------------------------------------------------------

std::string Signature(const std::vector<SearchHit>& hits) {
  std::string out;
  char buf[160];
  for (const SearchHit& hit : hits) {
    std::snprintf(buf, sizeof(buf), "|%zu,%zu,%d,%zu,%zu,%d,%.12g,%.12g|",
                  hit.rdb_length, hit.er_length, static_cast<int>(hit.kind),
                  hit.hub_patterns, hit.nm_steps, hit.schema_close ? 1 : 0,
                  hit.text_score, hit.ambiguity);
    out += hit.rendered;
    out += buf;
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer accounting. A BenchSpan wraps one call into a layer's public API:
// it opens a TraceSpan (recorded into the Chrome JSON when a recorder is
// installed) and adds its duration to the layer slot while tracing is on.
// ---------------------------------------------------------------------------

enum Slot {
  kServicePrepare,
  kServiceFetch,
  kServiceClose,
  kServiceSearch,
  kServiceMutate,
  kRelationalApply,
  kRelationalClone,
  kRelationalDelta,
  kCoreDerive,
  kCoreCompaction,
  kTextMatch,
  kNumSlots,
};

struct SlotSum {
  std::atomic<uint64_t> ns{0};
  std::atomic<uint64_t> calls{0};
};

SlotSum g_slots[kNumSlots];

double SlotMeanMs(Slot slot) {
  uint64_t calls = g_slots[slot].calls.load();
  return calls == 0 ? 0.0 : g_slots[slot].ns.load() / 1e6 / calls;
}

class BenchSpan {
 public:
  BenchSpan(const char* name, Slot slot) : span_(name), slot_(slot) {
    if (span_.active()) start_ = Clock::now();
  }
  ~BenchSpan() {
    if (!span_.active()) return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - start_)
                  .count();
    g_slots[slot_].ns.fetch_add(static_cast<uint64_t>(ns));
    g_slots[slot_].calls.fetch_add(1);
  }

 private:
  claks::TraceSpan span_;
  Slot slot_;
  Clock::time_point start_;
};

/// QueryProfile stage sums over the traced queries.
struct ProfileSums {
  std::mutex mutex;
  uint64_t queries = 0;
  uint64_t plan_ns = 0, stream_ns = 0, analyze_ns = 0, rank_ns = 0,
           fetch_ns = 0;
  void Add(const claks::QueryProfile& p) {
    std::lock_guard<std::mutex> lock(mutex);
    ++queries;
    plan_ns += p.plan_ns;
    stream_ns += p.stream_ns;
    analyze_ns += p.analyze_ns;
    rank_ns += p.rank_ns;
    fetch_ns += p.fetch_ns;
  }
  double MeanMs(uint64_t ns) const {
    return queries == 0 ? 0.0 : ns / 1e6 / queries;
  }
};

ProfileSums g_profile;

// ---------------------------------------------------------------------------
// Run bookkeeping.
// ---------------------------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
};

/// Exact work counters of a fixed-count pass: same seed, same values.
struct Counters {
  uint64_t queries = 0;
  uint64_t keywords = 0;
  uint64_t matches = 0;
  uint64_t hits = 0;
  uint64_t stream_expansions = 0;
  uint64_t stream_queries = 0;
  uint64_t banks_visited = 0;
  uint64_t banks_queries = 0;
  uint64_t replay_writes = 0;
  uint64_t replay_noops = 0;
  uint64_t replay_compactions = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t answers_digest = 0;  // FNV-1a over the pass's answer signatures

  void AddAnswer(const std::string& signature) {
    if (answers_digest == 0) answers_digest = 14695981039346656037ULL;
    for (unsigned char ch : signature) {
      answers_digest = (answers_digest ^ ch) * 1099511628211ULL;
    }
  }

  std::string ToJson() const {
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "{\"queries\": %llu, \"keywords\": %llu, \"matches\": %llu, "
        "\"hits\": %llu, \"stream_queries\": %llu, \"stream_expansions\": "
        "%llu, \"banks_queries\": %llu, \"banks_visited\": %llu, "
        "\"replay_writes\": %llu, \"replay_noops\": %llu, "
        "\"replay_compactions\": %llu, \"snapshot_bytes\": %llu, "
        "\"answers_digest\": \"%016llx\"}",
        (unsigned long long)queries, (unsigned long long)keywords,
        (unsigned long long)matches, (unsigned long long)hits,
        (unsigned long long)stream_queries,
        (unsigned long long)stream_expansions,
        (unsigned long long)banks_queries, (unsigned long long)banks_visited,
        (unsigned long long)replay_writes, (unsigned long long)replay_noops,
        (unsigned long long)replay_compactions,
        (unsigned long long)snapshot_bytes,
        (unsigned long long)answers_digest);
    return buf;
  }
};

struct Run {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string source_sha = "unknown";

  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::string> errors;
  std::mutex errors_mutex;

  std::vector<std::pair<std::string, Metric>> metrics;
  Counters counters;
  std::vector<std::string> notes;  // extra detail for the detail line

  void Fail(const std::string& what) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(errors_mutex);
    if (errors.size() < 8) errors.push_back(what);
  }
  void Mismatch(const std::string& what) {
    mismatches.fetch_add(1);
    Fail("answer mismatch: " + what);
  }
  /// One operation: counted as attempted, and as failed unless `ok`.
  void Op(bool ok, const char* what) {
    attempted.fetch_add(1);
    if (!ok) Fail(what);
  }
  void Set(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  std::string Path(const std::string& name) const {
    return work_dir + "/" + name;
  }
};

/// One timed operation: when it completed (seconds since its measured
/// block began) and how long it took.
struct Sample {
  double at_s;
  double ms;
};

/// A measured block: the read queries, the workload's defining operation
/// (the same samples on interactive and analytic), and the block length.
struct Window {
  std::vector<Sample> queries;
  std::vector<Sample> ops;
  double seconds = 0;
  double Qps() const { return seconds > 0 ? queries.size() / seconds : 0; }
};

constexpr size_t kSubWindows = 5;

/// Splits a block's samples into kSubWindows equal time slices.
std::vector<std::vector<double>> Slices(const std::vector<Sample>& samples,
                                        double seconds) {
  std::vector<std::vector<double>> slices(kSubWindows);
  for (const Sample& s : samples) {
    size_t i = static_cast<size_t>(s.at_s / seconds * kSubWindows);
    slices[std::min(i, kSubWindows - 1)].push_back(s.ms);
  }
  return slices;
}

size_t SmallestSlice(const std::vector<std::vector<double>>& slices) {
  size_t n = SIZE_MAX;
  for (const auto& slice : slices) n = std::min(n, slice.size());
  return n;
}

/// Quantile q of the latencies, robust to interference from outside the
/// process: the median over the time slices of each slice's quantile, so
/// a burst that slows one slice does not move the figure. Pooled when a
/// slice would hold fewer than ten samples beyond q.
double RobustQuantile(const std::vector<Sample>& samples, double seconds,
                      double q) {
  auto slices = Slices(samples, seconds);
  if (SmallestSlice(slices) * (1 - q) < 10) {
    std::vector<double> all;
    for (const Sample& s : samples) all.push_back(s.ms);
    return Quantile(all, q);
  }
  std::vector<double> per_slice;
  for (const auto& slice : slices) per_slice.push_back(Quantile(slice, q));
  return Quantile(per_slice, 0.5);
}

/// Completions per second: the median over the time slices when each
/// slice holds at least 100 completions, else the pooled rate.
double RobustRate(const std::vector<Sample>& samples, double seconds) {
  auto slices = Slices(samples, seconds);
  if (SmallestSlice(slices) < 100) return samples.size() / seconds;
  std::vector<double> rates;
  for (const auto& slice : slices) {
    rates.push_back(slice.size() / (seconds / kSubWindows));
  }
  return Quantile(rates, 0.5);
}

std::unique_ptr<SearchService> MakeService(const claks::GeneratedDataset& data,
                                           const ServiceOptions& options,
                                           double* seconds) {
  std::unique_ptr<Database> db = data.db->Clone();
  auto start = Clock::now();
  auto service = SearchService::Create(std::move(db), data.er_schema,
                                       data.mapping, options);
  if (seconds != nullptr) *seconds = SecondsSince(start);
  if (!service.ok()) {
    std::fprintf(stderr, "service build failed: %s\n",
                 service.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(service).ValueOrDie();
}

/// Builds the workload's service `reps` times; returns the last one and
/// the upper quartile of the build times. Freed memory goes back to the
/// kernel before each build (malloc_trim), so every build faults its
/// memory in as a build in a fresh process does; reusing the previous
/// build's pages or not made the median bimodal across processes (~0.027
/// vs ~0.039 s). Even so, single builds run in two modes with the host's
/// state (~0.040 s, and ~0.022-0.030 s in spells of minutes), and the
/// share of fast builds in a run went from none to most. The median and
/// lower quantiles followed that share; the upper quartile stays inside
/// the common mode.
std::unique_ptr<SearchService> SetUpService(
    const claks::GeneratedDataset& data, const ServiceOptions& options,
    Run* run, double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<SearchService> service;
  for (size_t i = 0; i < kSetupReps; ++i) {
    service.reset();
    malloc_trim(0);
    double t = 0;
    service = MakeService(data, options, &t);
    times.push_back(t);
  }
  *setup_s = Quantile(times, 0.75);
  char note[160];
  std::snprintf(note, sizeof(note),
                "\"setup_builds\": %zu, \"setup_build_min_s\": %.4f, "
                "\"setup_build_p50_s\": %.4f, \"setup_build_max_s\": %.4f",
                times.size(), Quantile(times, 0), Quantile(times, 0.5),
                Quantile(times, 1));
  run->notes.push_back(note);
  return service;
}

/// One client query through the cursor API: Prepare, Fetch(top_k), Close.
/// `page` receives the fetched page; false when any of the calls failed.
bool ServiceQuery(SearchService* service, const std::string& text,
                  const SearchOptions& options,
                  claks::QueryResponse* page) {
  claks::QueryRequest request;
  request.query_text = text;
  request.options = options;
  uint64_t id = 0;
  {
    BenchSpan span("bench/service.prepare", kServicePrepare);
    auto prepared = service->Prepare(request);
    if (!prepared.ok()) return false;
    id = prepared->cursor_id;
  }
  bool ok = true;
  {
    BenchSpan span("bench/service.fetch", kServiceFetch);
    auto fetched = service->Fetch(id, kTopK);
    if (fetched.ok()) {
      *page = std::move(fetched).ValueOrDie();
    } else {
      ok = false;
    }
  }
  BenchSpan span("bench/service.close", kServiceClose);
  return service->Close(id).ok() && ok;
}

/// The churn write: one DEPENDENT insert; every third write also deletes
/// the oldest row of the same writer. Each writer keys its rows by its own
/// `prefix`, so replayed writes never collide with the workload's rows.
Status ApplyWrite(Database* db, const char* prefix, uint64_t seed,
                  size_t write_index, size_t num_employees) {
  BenchSpan span("bench/relational.apply", kRelationalApply);
  claks::Table* dependent = db->FindMutableTable("DEPENDENT");
  if (dependent == nullptr) return Status::NotFound("DEPENDENT");
  Rand rng(seed, 1000 + write_index);
  std::string id = prefix + std::to_string(write_index);
  std::string name = kGivenNames[rng.Index(std::size(kGivenNames))];
  std::string employee = "e" + std::to_string(1 + rng.Index(num_employees));
  auto inserted = dependent->InsertValues({claks::Value::String(id),
                                           claks::Value::String(name),
                                           claks::Value::String(employee)});
  if (!inserted.ok()) return inserted.status();
  if (write_index % 3 == 2) {
    std::string victim = prefix + std::to_string(write_index / 3);
    return dependent->DeleteByPrimaryKey({claks::Value::String(victim)});
  }
  return Status::OK();
}

size_t NumEmployees(const Database& db) {
  const claks::Table* employee = db.FindTable("EMPLOYEE");
  return employee == nullptr ? 1 : employee->live_rows();
}

claks::DeltaPolicy ChurnPolicy() {
  claks::DeltaPolicy policy;
  policy.mode = claks::DeltaPolicy::Mode::kAuto;
  policy.min_ops = kCompactMinOps;
  policy.fraction = 0.0;
  return policy;
}

// ---------------------------------------------------------------------------
// Traced-run layer walks: the calls a workload does not make itself, so
// every per-layer metric is measured on every workload (NOTES.md lists
// which metric comes from the workload and which from a walk).
// ---------------------------------------------------------------------------

/// Serial replay of queries through the engine with profile=true: the
/// QueryProfile stages plus a direct text-layer match per query.
void ReplayQueries(Run* run, const KeywordSearchEngine& engine,
                   const std::vector<std::string>& texts,
                   const SearchOptions& base) {
  SearchOptions options = base;
  options.profile = true;
  for (const std::string& text : texts) {
    {
      BenchSpan span("bench/text.match", kTextMatch);
      claks::KeywordQuery query =
          claks::ParseKeywordQuery(text, engine.index().tokenizer());
      std::vector<claks::KeywordMatches> matches =
          claks::MatchKeywords(engine.index(), query);
      for (const auto& km : matches) {
        run->counters.keywords += 1;
        run->counters.matches += km.matches.size();
      }
    }
    auto prepared = engine.Prepare(text, options);
    run->Op(prepared.ok(), "replay prepare");
    if (!prepared.ok()) continue;
    auto cursor = prepared->Open();
    if (!cursor.ok()) {
      run->Fail("replay open");
      continue;
    }
    auto hits = (*cursor)->Next(kTopK);
    if (!hits.ok()) {
      run->Fail("replay next");
      continue;
    }
    claks::CursorStats stats = (*cursor)->Stats();
    run->counters.queries += 1;
    run->counters.hits += hits->size();
    run->counters.AddAnswer(Signature(*hits));
    run->counters.stream_queries += 1;
    run->counters.stream_expansions += stats.expansions;
    if (stats.profile) g_profile.Add(*stats.profile);
  }
}

/// Replays churn writes on a private chain from `db`/`engine` through the
/// relational and core public calls the service's Mutate makes.
void ReplayDerive(Run* run, const Database& db,
                  const KeywordSearchEngine& engine) {
  std::unique_ptr<Database> owned_db;
  std::unique_ptr<KeywordSearchEngine> owned_engine;
  const Database* prev_db = &db;
  const KeywordSearchEngine* prev_engine = &engine;
  size_t employees = NumEmployees(db);
  claks::DeltaPolicy policy = ChurnPolicy();
  for (size_t i = 0; i < kReplayWrites; ++i) {
    std::unique_ptr<Database> next;
    {
      BenchSpan span("bench/relational.clone", kRelationalClone);
      next = prev_db->Clone();
    }
    claks::DatabaseWatermark watermark;
    {
      BenchSpan span("bench/relational.delta", kRelationalDelta);
      watermark = claks::TakeWatermark(*next);
    }
    Status applied = ApplyWrite(next.get(), "replay", run->seed ^ 0x5eed, i,
                                employees);
    run->Op(applied.ok(), "replay write");
    if (!applied.ok()) return;
    claks::DatabaseDelta delta;
    {
      BenchSpan span("bench/relational.delta", kRelationalDelta);
      delta = claks::ComputeDelta(watermark, *next);
    }
    run->counters.replay_writes += 1;
    if (delta.empty()) {
      run->counters.replay_noops += 1;
      continue;
    }
    // Timed by hand: whether this Derive compacted (which slot it belongs
    // to) is known only afterwards.
    bool compacted = false;
    auto start = Clock::now();
    claks::TraceSpan span("bench/core.derive");
    auto derived = KeywordSearchEngine::Derive(*prev_engine, next.get(),
                                               delta, policy, &compacted);
    if (!derived.ok()) {
      run->Fail("replay derive: " + derived.status().ToString());
      return;
    }
    if (compacted) next->CompactStorage();
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    Slot slot = compacted ? kCoreCompaction : kCoreDerive;
    g_slots[slot].ns.fetch_add(ns);
    g_slots[slot].calls.fetch_add(1);
    run->counters.replay_compactions += compacted ? 1 : 0;
    // The new generation replaces the previous one; the engine goes first
    // because it reads its database.
    owned_engine = std::move(derived).ValueOrDie();
    owned_db = std::move(next);
    prev_db = owned_db.get();
    prev_engine = owned_engine.get();
  }
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

/// Median per-call times of the storage walk, in ms.
struct StorageTimes {
  double save_ms = 0;
  double load_ms = 0;
  double first_query_ms = 0;
};

/// Snapshot save, cold load and first answer, kStorageCycles times; the
/// medians, so that a slow cycle does not move the figures. The cycles
/// answer the first texts in turn.
StorageTimes StorageWalk(Run* run, SearchService* service,
                         const std::vector<std::string>& texts) {
  std::string path = run->Path("walk.snap");
  std::vector<double> save_ms, load_ms, first_query_ms;
  for (size_t i = 0; i < kStorageCycles; ++i) {
    auto t0 = Clock::now();
    {
      claks::TraceSpan span("bench/storage.save");
      Status saved = service->SaveSnapshot(path);
      run->Op(saved.ok(), "walk save");
      if (!saved.ok()) break;
    }
    auto t1 = Clock::now();
    run->counters.snapshot_bytes = FileBytes(path);
    ServiceOptions options;
    options.num_threads = 1;
    std::unique_ptr<SearchService> loaded;
    auto t2 = Clock::now();
    {
      claks::TraceSpan span("bench/storage.load");
      auto created = SearchService::CreateFromSnapshot(path, options);
      run->Op(created.ok(), "walk load");
      if (!created.ok()) break;
      loaded = std::move(created).ValueOrDie();
    }
    auto t3 = Clock::now();
    {
      claks::TraceSpan span("bench/storage.first_query");
      claks::QueryResponse page;
      run->Op(ServiceQuery(loaded.get(), texts[i % texts.size()],
                           StreamOptions(), &page),
              "walk first query");
    }
    auto t4 = Clock::now();
    save_ms.push_back(MsBetween(t0, t1));
    load_ms.push_back(MsBetween(t2, t3));
    first_query_ms.push_back(MsBetween(t3, t4));
  }
  std::remove(path.c_str());
  return {Quantile(save_ms, 0.5), Quantile(load_ms, 0.5),
          Quantile(first_query_ms, 0.5)};
}

/// Churn writes through the service's Mutate.
void MutateWalk(Run* run, SearchService* service, size_t writes) {
  size_t employees = NumEmployees(*service->snapshot()->db);
  for (size_t i = 0; i < writes; ++i) {
    BenchSpan span("bench/service.mutate", kServiceMutate);
    Status status = service->Mutate([&](Database* db) {
      return ApplyWrite(db, "walk", run->seed ^ 0xa11, i, employees);
    });
    run->Op(status.ok(), "walk mutate");
  }
}

/// The trace-mode epilogue shared by all workloads: fills every layer
/// slot the workload left empty, then the derive replay and the storage
/// walk.
StorageTimes LayerWalks(Run* run, SearchService* service,
                        const std::vector<std::string>& texts) {
  if (g_slots[kServicePrepare].calls == 0) {
    for (size_t i = 0; i < 20; ++i) {
      claks::QueryResponse page;
      run->Op(ServiceQuery(service, texts[i % texts.size()], StreamOptions(),
                           &page),
              "walk query");
    }
  }
  if (g_profile.queries == 0 || g_slots[kTextMatch].calls == 0) {
    std::vector<std::string> replay(
        texts.begin(), texts.begin() + std::min(texts.size(), kReplayQueries));
    ReplayQueries(run, *service->snapshot()->engine, replay, StreamOptions());
  }
  {
    std::shared_ptr<const claks::EngineSnapshot> snap = service->snapshot();
    ReplayDerive(run, *snap->db, *snap->engine);
  }
  if (g_slots[kServiceMutate].calls == 0) MutateWalk(run, service, 16);
  return StorageWalk(run, service, texts);
}

/// Per-layer metrics from the slots, profile sums and counters.
void EmitLayerMetrics(Run* run, const claks::ServiceStats& stats,
                      const StorageTimes& storage, double untraced_qps,
                      double traced_qps) {
  const Counters& c = run->counters;
  uint64_t lookups = stats.cache_hits + stats.cache_misses;
  run->Set("service.prepare_ms", SlotMeanMs(kServicePrepare), "ms");
  run->Set("service.fetch_ms", SlotMeanMs(kServiceFetch), "ms");
  run->Set("service.cache_hit_ratio",
           lookups == 0 ? 0.0 : double(stats.cache_hits) / lookups, "ratio");
  run->Set("service.cache_hits", double(stats.cache_hits), "count");
  run->Set("service.cache_misses", double(stats.cache_misses), "count");
  run->Set("service.cache_evictions", double(stats.cache_evictions), "count");
  run->Set("service.mutate_ms",
           std::max(0.0, SlotMeanMs(kServiceMutate) -
                             SlotMeanMs(kRelationalApply)),
           "ms");
  run->Set("service.delta_mutations", double(stats.delta_mutations), "count");
  run->Set("service.noop_mutations", double(stats.noop_mutations), "count");
  run->Set("service.compactions", double(stats.compactions), "count");
  run->Set("text.match_ms", SlotMeanMs(kTextMatch), "ms");
  run->Set("text.matches_per_keyword",
           c.keywords == 0 ? 0.0 : double(c.matches) / c.keywords, "count");
  run->Set("core.plan_ms", g_profile.MeanMs(g_profile.plan_ns), "ms");
  run->Set("core.stream_ms", g_profile.MeanMs(g_profile.stream_ns), "ms");
  run->Set("core.analyze_ms", g_profile.MeanMs(g_profile.analyze_ns), "ms");
  run->Set("core.rank_ms", g_profile.MeanMs(g_profile.rank_ns), "ms");
  run->Set("core.fetch_ms", g_profile.MeanMs(g_profile.fetch_ns), "ms");
  run->Set("core.expansions",
           c.stream_queries == 0
               ? 0.0
               : double(c.stream_expansions) / c.stream_queries,
           "count");
  run->Set("core.hits_per_expansion",
           c.stream_expansions == 0 ? 0.0
                                    : double(c.hits) / c.stream_expansions,
           "ratio");
  run->Set("core.derive_ms", SlotMeanMs(kCoreDerive), "ms");
  run->Set("core.compaction_ms", SlotMeanMs(kCoreCompaction), "ms");
  run->Set("core.replay_compactions", double(c.replay_compactions), "count");
  run->Set("graph.banks_visited",
           c.banks_queries == 0 ? 0.0
                                : double(c.banks_visited) / c.banks_queries,
           "count");
  run->Set("relational.apply_ms", SlotMeanMs(kRelationalApply), "ms");
  run->Set("relational.clone_ms", SlotMeanMs(kRelationalClone), "ms");
  run->Set("relational.delta_ms", SlotMeanMs(kRelationalDelta), "ms");
  run->Set("storage.load_ms", storage.load_ms, "ms");
  run->Set("storage.first_query_ms", storage.first_query_ms, "ms");
  run->Set("storage.save_ms", storage.save_ms, "ms");
  run->Set("storage.snapshot_bytes", double(c.snapshot_bytes), "bytes");
  run->Set("observability.trace_overhead",
           untraced_qps > 0 ? traced_qps / untraced_qps : 0.0, "ratio");
}

/// The end-to-end metrics.
void EmitEndToEnd(Run* run, double setup_s, double qps, double query_p50_ms,
                  double query_tail_ms, double op_p50_ms, double op_tail_ms,
                  double peak_rss_mb) {
  run->Set("setup_s", setup_s, "s");
  run->Set("query_qps", qps, "1/s");
  run->Set("query_p50_ms", query_p50_ms, "ms");
  run->Set("query_tail_ms", query_tail_ms, "ms");
  run->Set("op_p50_ms", op_p50_ms, "ms");
  run->Set("op_tail_ms", op_tail_ms, "ms");
  run->Set("peak_rss_mb", peak_rss_mb, "MB");
}

/// The end-to-end metrics of a time-sliced block (RobustRate,
/// RobustQuantile). The tail quantiles are fixed per workload (NOTES.md
/// gives the reasons).
void EmitEndToEnd(Run* run, double setup_s, const Window& w,
                  double peak_rss_mb, double query_tail_q, double op_tail_q) {
  EmitEndToEnd(run, setup_s, RobustRate(w.queries, w.seconds),
               RobustQuantile(w.queries, w.seconds, 0.5),
               RobustQuantile(w.queries, w.seconds, query_tail_q),
               RobustQuantile(w.ops, w.seconds, 0.5),
               RobustQuantile(w.ops, w.seconds, op_tail_q), peak_rss_mb);
  char note[200];
  std::snprintf(note, sizeof(note),
                "\"query_samples\": %zu, \"op_samples\": %zu, "
                "\"query_tail_quantile\": %.2f, \"op_tail_quantile\": %.2f",
                w.queries.size(), w.ops.size(), query_tail_q, op_tail_q);
  run->notes.push_back(note);
}

/// The measured part of a run, after a discarded warmup block (caches
/// fill, lazy set-up finishes). Untraced runs measure one block of
/// --seconds. Traced runs measure an untraced half, then install
/// `recorder` and measure a traced half; the two throughputs give the
/// tracing overhead. The peak RSS is read as the measured blocks end,
/// before the correctness gate builds its own engines.
struct Measured {
  Window window;
  double peak_rss_mb = 0;
  double untraced_qps = 0;
  double traced_qps = 0;
};

Measured Measure(Run* run, claks::TraceRecorder* recorder,
                 const std::function<Window(double)>& block) {
  block(std::min(1.0, run->seconds / 10));
  Measured m;
  if (!run->trace) {
    // Host CPU steal during the block: interference no in-process
    // statistic can remove, reported so noisy runs can be recognised.
    auto before = CpuSteal();
    m.window = block(run->seconds);
    m.peak_rss_mb = PeakRssMb();
    auto after = CpuSteal();
    uint64_t total = after.second - before.second;
    char note[64];
    std::snprintf(note, sizeof(note), "\"host_steal_share\": %.4f",
                  total ? double(after.first - before.first) / total : 0.0);
    run->notes.push_back(note);
    return m;
  }
  m.window = block(run->seconds / 2);
  recorder->Install();
  m.untraced_qps = m.window.Qps();
  m.traced_qps = block(run->seconds / 2).Qps();
  m.peak_rss_mb = PeakRssMb();
  return m;
}

// ---------------------------------------------------------------------------
// interactive / churn: closed-loop cursor clients (plus churn's writer).
// ---------------------------------------------------------------------------

/// kClients closed-loop clients, each drawing its own seeded stream from
/// one ZipfQueries across every block of the run.
class Readers {
 public:
  Readers(Run* run, SearchService* service, const ZipfQueries* queries)
      : run_(run), service_(service), queries_(queries) {
    for (size_t c = 0; c < kClients; ++c) rngs_.emplace_back(run->seed, 100 + c);
  }

  /// Every client queries until `seconds` have passed.
  Window Timed(double seconds) {
    std::vector<std::vector<Sample>> samples(kClients);
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration<double>(seconds);
    Parallel([&](size_t c) {
      while (Clock::now() < deadline) {
        const std::string& text = queries_->Draw(&rngs_[c]);
        claks::QueryResponse page;
        auto t0 = Clock::now();
        bool ok = ServiceQuery(service_, text, StreamOptions(), &page);
        auto t1 = Clock::now();
        samples[c].push_back(
            {std::chrono::duration<double>(t1 - start).count(),
             MsBetween(t0, t1)});
        run_->Op(ok, "query");
      }
    });
    Window w;
    w.seconds = SecondsSince(start);
    for (auto& s : samples) {
      w.queries.insert(w.queries.end(), s.begin(), s.end());
    }
    return w;
  }

  /// Every client runs `count` more queries of its stream, each checked
  /// against a serial Search on the generation its cursor pinned (a query
  /// whose generation moved between pin and Prepare is not counted).
  size_t Verify(size_t count) {
    std::atomic<size_t> verified{0};
    Parallel([&](size_t c) {
      for (size_t tries = 0, done = 0; done < count && tries < 4 * count;
           ++tries) {
        const std::string& text = queries_->Draw(&rngs_[c]);
        std::shared_ptr<const claks::EngineSnapshot> pinned =
            service_->snapshot();
        claks::QueryResponse page;
        bool ok = ServiceQuery(service_, text, StreamOptions(), &page);
        run_->Op(ok, "verified query");
        if (!ok || pinned->version != page.snapshot_version) continue;
        auto expected = pinned->engine->Search(text, StreamOptions());
        if (!expected.ok()) {
          run_->Fail("oracle search");
          continue;
        }
        std::vector<SearchHit> want = expected->hits;
        if (want.size() > kTopK) want.resize(kTopK);
        if (Signature(want) != Signature(page.hits)) run_->Mismatch(text);
        ++done;
        ++verified;
      }
    });
    return verified;
  }

 private:
  void Parallel(const std::function<void(size_t)>& body) {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) threads.emplace_back(body, c);
    for (std::thread& t : threads) t.join();
  }

  Run* run_;
  SearchService* service_;
  const ZipfQueries* queries_;
  std::vector<Rand> rngs_;
};

/// Churn's writer: an open-loop schedule of single-row writes at
/// kWritesPerSecond, each timed from when it was due.
class Writer {
 public:
  Writer(Run* run, SearchService* service, size_t employees)
      : run_(run), service_(service), employees_(employees) {}

  /// Follows the schedule for `seconds`, or until `stop` is set.
  std::vector<Sample> Follow(double seconds, const std::atomic<bool>& stop) {
    std::vector<Sample> samples;
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration<double>(seconds);
    const auto period = std::chrono::duration<double>(1.0 / kWritesPerSecond);
    for (size_t i = 0; !stop; ++i) {
      auto due = start + std::chrono::duration_cast<Clock::duration>(period * i);
      if (due >= end) break;
      // Sleep, then spin through the last 2 ms: waking a sleeping thread
      // on this host took up to milliseconds, which is the generator
      // running late, not the service.
      std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
      while (Clock::now() < due) {
      }
      max_late_ms_ = std::max(max_late_ms_, MsBetween(due, Clock::now()));
      size_t w = next_write_++;
      Status status;
      {
        BenchSpan span("bench/service.mutate", kServiceMutate);
        status = service_->Mutate([&](Database* db) {
          return ApplyWrite(db, "churn", run_->seed, w, employees_);
        });
      }
      auto done = Clock::now();
      samples.push_back({std::chrono::duration<double>(done - start).count(),
                         MsBetween(due, done)});
      run_->Op(status.ok(), "mutate");
    }
    return samples;
  }

  size_t writes() const { return next_write_; }
  double max_late_ms() const { return max_late_ms_; }

 private:
  Run* run_;
  SearchService* service_;
  size_t employees_;
  size_t next_write_ = 0;
  double max_late_ms_ = 0;
};

/// The first `n` distinct query texts of a fresh client-0 stream.
std::vector<std::string> StreamPrefix(const ZipfQueries& queries,
                                      uint64_t seed, size_t n) {
  Rand rng(seed, 100);
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (size_t i = 0; out.size() < n && i < 100 * n; ++i) {
    const std::string& text = queries.Draw(&rng);
    if (seen.insert(text).second) out.push_back(text);
  }
  return out;
}

/// interactive (cache on, readers only) and churn (cache off, readers
/// beside the writer).
void RunReaders(Run* run, claks::TraceRecorder* recorder, bool churn) {
  auto data = claks::GenerateCompanyDataset(
      claks::CompanyGenOptions::AtScale(kDataScale));
  if (!data.ok()) {
    run->Fail("dataset");
    return;
  }
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = churn ? 0 : kInteractiveCache;
  if (churn) options.delta_policy = ChurnPolicy();
  double setup_s = 0;
  std::unique_ptr<SearchService> service =
      SetUpService(*data, options, run, &setup_s);

  ZipfQueries queries(run->seed);
  Readers readers(run, service.get(), &queries);
  Writer writer(run, service.get(), NumEmployees(*data->db));
  Measured m = Measure(run, recorder, [&](double seconds) {
    if (!churn) {
      Window w = readers.Timed(seconds);
      w.ops = w.queries;
      return w;
    }
    std::atomic<bool> stop{false};
    std::vector<Sample> writes;
    std::thread t([&] { writes = writer.Follow(seconds, stop); });
    Window w = readers.Timed(seconds);
    t.join();
    w.ops = std::move(writes);
    return w;
  });

  // Correctness: sampled answers under the same concurrency (the writer
  // keeps going under churn), then — churn — the final generation against
  // an engine built cold from the final database.
  size_t verified = 0;
  if (churn) {
    std::atomic<bool> stop{false};
    std::thread t([&] { writer.Follow(3600, stop); });
    verified = readers.Verify(kVerifyQueries);
    stop = true;
    t.join();
  } else {
    verified = readers.Verify(kVerifyQueries);
  }
  if (verified == 0) run->Fail("no answer was verified");
  claks::ServiceStats stats = service->stats();
  if (churn) {
    std::shared_ptr<const claks::EngineSnapshot> snap = service->snapshot();
    auto cold = KeywordSearchEngine::Create(snap->db.get(), data->er_schema,
                                            data->mapping);
    if (!cold.ok()) {
      run->Fail("cold engine build");
    } else {
      for (const std::string& text : StreamPrefix(queries, run->seed, 24)) {
        auto want = (*cold)->Search(text, StreamOptions());
        auto got = snap->engine->Search(text, StreamOptions());
        run->Op(want.ok() && got.ok(), "final-generation query");
        if (want.ok() && got.ok() &&
            Signature(want->hits) != Signature(got->hits)) {
          run->Mismatch("final generation: " + text);
        }
      }
    }
  }
  uint64_t lookups = stats.cache_hits + stats.cache_misses;
  char note[256];
  std::snprintf(note, sizeof(note),
                "\"verified_answers\": %zu, \"cache_hit_ratio\": %.4f, "
                "\"writes\": %zu, \"compactions\": %llu, "
                "\"writer_max_late_ms\": %.3f",
                verified, lookups ? double(stats.cache_hits) / lookups : 0.0,
                writer.writes(), (unsigned long long)stats.compactions,
                writer.max_late_ms());
  run->notes.push_back(note);

  if (run->trace) {
    std::vector<std::string> texts =
        StreamPrefix(queries, run->seed, kReplayQueries);
    ReplayQueries(run, *service->snapshot()->engine, texts, StreamOptions());
    StorageTimes storage = LayerWalks(run, service.get(), texts);
    EmitLayerMetrics(run, stats, storage, m.untraced_qps, m.traced_qps);
  } else {
    // Under churn the surname pairs are ~10% of reads, so a read p99
    // would sit in the top tenth of their latencies, where outside
    // interference decides it; p95 sits at their middle. The write tail
    // is p75: from p90 up, write latency moved 5x between runs with host
    // CPU steal (p90 0.25-1.5 ms; p99, inside the compaction mode, 3-9
    // ms). Compaction cost is the per-layer core.compaction_ms.
    EmitEndToEnd(run, setup_s, m.window, m.peak_rss_mb, churn ? 0.95 : 0.99,
                 churn ? 0.75 : 0.99);
  }
}

// ---------------------------------------------------------------------------
// analytic: serial exhaustive queries, cache off.
// ---------------------------------------------------------------------------

const SearchMethod kAnalyticMethods[] = {
    SearchMethod::kEnumerate, SearchMethod::kDiscover, SearchMethod::kBanks};

/// One analytic query: a pair under one method.
struct AnalyticCell {
  std::string text;
  SearchMethod method;
};

/// The analytic query population: the 144 topic-surname pairs, each under
/// the three methods, in a seeded order. The order runs in 12 rounds; in
/// each, every topic meets one surname and every surname one topic, so
/// every prefix of whole rounds holds each word equally often. A pair's
/// three methods run back to back. The seed decides who meets whom in
/// which round, and the order within a round.
std::vector<AnalyticCell> AnalyticCells(uint64_t seed) {
  static_assert(std::size(kTopics) == std::size(kSurnames),
                "the rounds pair every topic with one surname");
  Rand rng(seed, 2);
  std::vector<std::string> surnames(std::begin(kSurnames),
                                    std::end(kSurnames));
  rng.Shuffle(&surnames);
  const size_t n = surnames.size();
  std::vector<AnalyticCell> cells;
  for (size_t round = 0; round < n; ++round) {
    std::vector<std::string> pairs;
    for (size_t t = 0; t < n; ++t) {
      pairs.push_back(std::string(kTopics[t]) + " " +
                      surnames[(t + round) % n]);
    }
    rng.Shuffle(&pairs);
    for (const std::string& text : pairs) {
      for (SearchMethod method : kAnalyticMethods) {
        cells.push_back({text, method});
      }
    }
  }
  return cells;
}

struct AnalyticSample {
  std::string text;
  SearchMethod method;
  std::string signature;
  size_t work;
};

void RunAnalytic(Run* run, claks::TraceRecorder* recorder) {
  auto data = claks::GenerateCompanyDataset(
      claks::CompanyGenOptions::AtScale(kDataScale));
  if (!data.ok()) {
    run->Fail("dataset");
    return;
  }
  ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  double setup_s = 0;
  std::unique_ptr<SearchService> service =
      SetUpService(*data, options, run, &setup_s);

  // Every block starts at the top of the order and cycles through it;
  // cell_ms holds the last block's latencies of each query.
  const std::vector<AnalyticCell> cells = AnalyticCells(run->seed);
  std::vector<std::vector<double>> cell_ms;
  std::vector<AnalyticSample> samples;
  Measured m = Measure(run, recorder, [&](double seconds) {
    Window w;
    cell_ms.assign(cells.size(), {});
    const bool profile = claks::TraceSpan::Enabled();
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration<double>(seconds);
    for (size_t index = 0; Clock::now() < deadline; ++index) {
      const AnalyticCell& cell = cells[index % cells.size()];
      SearchOptions opts = AnalyticOptions(cell.method);
      opts.profile = profile;
      auto t0 = Clock::now();
      auto result = [&] {
        BenchSpan span("bench/service.search", kServiceSearch);
        return service->SearchNow(cell.text, opts);
      }();
      auto t1 = Clock::now();
      w.queries.push_back(
          {std::chrono::duration<double>(t1 - start).count(),
           MsBetween(t0, t1)});
      cell_ms[index % cells.size()].push_back(MsBetween(t0, t1));
      run->Op(result.ok(), "analytic query");
      if (!result.ok()) continue;
      if (result->profile) g_profile.Add(*result->profile);
      if (index % 8 == 0 && samples.size() < 12) {
        samples.push_back({cell.text, cell.method, Signature(result->hits),
                           result->expansions});
      }
    }
    w.seconds = SecondsSince(start);
    w.ops = w.queries;
    return w;
  });

  // Each method's answers must be reproduced by a second, private engine;
  // the exact work counters must match too.
  std::unique_ptr<Database> private_db = data->db->Clone();
  auto oracle = KeywordSearchEngine::Create(private_db.get(), data->er_schema,
                                            data->mapping);
  if (!oracle.ok()) {
    run->Fail("private engine build");
  } else {
    for (const AnalyticSample& s : samples) {
      auto want = (*oracle)->Search(s.text, AnalyticOptions(s.method));
      run->Op(want.ok(), "private engine query");
      if (!want.ok()) continue;
      if (Signature(want->hits) != s.signature) {
        run->Mismatch(std::string(claks::SearchMethodToString(s.method)) +
                      ": " + s.text);
      } else if (want->expansions != s.work) {
        run->Mismatch("work counter differs: " + s.text);
      }
    }
  }
  run->notes.push_back("\"verified_answers\": " +
                       std::to_string(samples.size()));
  if (samples.empty()) run->Fail("no answer was verified");

  // Exact-counter pass: the first queries of the seeded order, twice.
  Counters passes[2];
  for (Counters& counters : passes) {
    for (size_t i = 0; i < kCounterQueries; ++i) {
      SearchMethod method = cells[i].method;
      auto result = service->SearchNow(cells[i].text, AnalyticOptions(method));
      run->Op(result.ok(), "counter query");
      if (!result.ok()) continue;
      counters.queries += 1;
      counters.hits += result->hits.size();
      counters.AddAnswer(Signature(result->hits));
      for (const auto& km : result->matches) {
        counters.keywords += 1;
        counters.matches += km.matches.size();
      }
      if (method == SearchMethod::kBanks) {
        counters.banks_queries += 1;
        counters.banks_visited += result->expansions;
      }
    }
  }
  if (passes[0].ToJson() != passes[1].ToJson()) {
    run->Mismatch("work counters differ between two same-seed passes");
  }
  run->counters = passes[0];

  if (run->trace) {
    claks::ServiceStats stats = service->stats();
    std::vector<std::string> texts;
    for (const AnalyticCell& cell : cells) {
      if (texts.size() == kCounterQueries) break;
      if (std::find(texts.begin(), texts.end(), cell.text) == texts.end()) {
        texts.push_back(cell.text);
      }
    }
    const KeywordSearchEngine& engine = *service->snapshot()->engine;
    for (const std::string& text : texts) {
      BenchSpan span("bench/text.match", kTextMatch);
      claks::MatchKeywords(engine.index(),
                           claks::ParseKeywordQuery(
                               text, engine.index().tokenizer()));
    }
    StorageTimes storage = LayerWalks(run, service.get(), texts);
    EmitLayerMetrics(run, stats, storage, m.untraced_qps, m.traced_qps);
  } else {
    // Quantiles over the queries of the population, each query once
    // (the median of its runs when a block wrapped around), so the mix
    // does not depend on where the block stopped.
    std::vector<double> per_query;
    for (const std::vector<double>& v : cell_ms) {
      if (!v.empty()) per_query.push_back(Quantile(v, 0.5));
    }
    double p50 = Quantile(per_query, 0.5);
    double p90 = Quantile(per_query, 0.9);
    EmitEndToEnd(run, setup_s, m.window.Qps(), p50, p90, p50, p90,
                 m.peak_rss_mb);
    char note[160];
    std::snprintf(note, sizeof(note),
                  "\"query_samples\": %zu, \"population_queries\": %zu, "
                  "\"population_covered\": %zu, \"query_tail_quantile\": 0.90",
                  m.window.queries.size(), cells.size(), per_query.size());
    run->notes.push_back(note);
  }
}

// ---------------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "interactive|analytic|churn --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--source-sha SHA]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      run.trace = value == "1";
    } else if (flag == "--work-dir") {
      run.work_dir = value;
    } else if (flag == "--source-sha") {
      run.source_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!have_seed || run.seconds <= 0 || run.work_dir.empty()) {
    return Usage("--seed, --seconds and --work-dir are required");
  }

  std::printf(
      "{\"host\": {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"source_sha\": \"%s\"}, \"workload\": \"%s\", \"seed\": "
      "%llu, \"seconds\": %s, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, run.source_sha.c_str(), run.workload.c_str(),
      (unsigned long long)run.seed, JsonNumber(run.seconds).c_str(),
      run.trace ? 1 : 0);
  std::fflush(stdout);

  claks::TraceRecorder recorder(1 << 18);
  if (run.workload == "interactive" || run.workload == "churn") {
    RunReaders(&run, &recorder, run.workload == "churn");
  } else if (run.workload == "analytic") {
    RunAnalytic(&run, &recorder);
  } else {
    return Usage(("unknown workload " + run.workload).c_str());
  }
  claks::TraceRecorder::Uninstall();

  if (run.trace) {
    std::string trace_path = run.Path("trace-" + run.workload + ".json");
    std::ofstream out(trace_path);
    out << recorder.ToChromeJson();
    run.notes.push_back("\"trace_json\": \"" + trace_path + "\"");
    run.notes.push_back("\"trace_dropped_spans\": " +
                        std::to_string(recorder.dropped()));
  }

  uint64_t attempted = std::max<uint64_t>(run.attempted.load(), 1);
  uint64_t failed = run.failed.load();
  bool correct = failed == 0 && run.mismatches.load() == 0;
  std::string detail = "{\"counters\": " + run.counters.ToJson() +
                       ", \"error_rate\": " +
                       JsonNumber(double(failed) / attempted);
  for (const std::string& note : run.notes) detail += ", " + note;
  detail += ", \"errors\": [";
  for (size_t i = 0; i < run.errors.size(); ++i) {
    std::string e = run.errors[i];
    std::replace(e.begin(), e.end(), '"', '\'');
    detail += (i ? ", \"" : "\"") + e + "\"";
  }
  detail += "]}";
  std::printf("%s\n", detail.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const auto& [name, metric] = run.metrics[i];
    line += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
            JsonNumber(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
