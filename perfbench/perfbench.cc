// perfbench: Skalla's end-to-end benchmark with a per-layer ledger.
//
//   perfbench --workload olap_local|olap_sync|serve_rw --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// Drives the library only through its public entry points:
// Warehouse::Plan + ExecutePlan (the two halves of Execute) and ExecuteAuto
// for the paper's queries, and server::Client -> server::Server over the
// wire protocol for serving.
// Every run sets up several times (setup_s is their median), runs one
// untimed warm-up pass, measures a closed loop for S seconds, checks
// every result, and prints one JSON object as its last stdout line.
// --trace 0 prints the end-to-end metrics; --trace 1 reruns with the
// benchmark's own spans kept in memory (written to --spans at the end)
// and prints the per-layer metrics. See perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "sql/olap_parser.h"
#include "storage/csv.h"
#include "storage/serializer.h"
#include "tpc/dbgen.h"

namespace {

using namespace skalla;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workload shapes (README.md, "Inputs").

// olap_local: Zipf-skewed customers, range-partitioned on NationKey.
constexpr int kLocalSites = 4;
constexpr int64_t kLocalRows = 100000;
constexpr int64_t kLocalCustomers = 25000;
constexpr double kLocalZipf = 0.8;

// olap_sync: uniform customers, hash-partitioned on CustKey.
constexpr int kSyncSites = 8;
constexpr int64_t kSyncRows = 20000;
constexpr int64_t kSyncCustomers = 5000;

// serve_rw: a served warehouse loaded with LOAD, three closed-loop clients.
// With a fourth, the readers hold the warehouse lock so continuously that a
// MUTATE waits until the run ends, and four busy threads on four cores
// take every stolen host cycle (README.md, "Why three clients").
constexpr int kServeSites = 4;
constexpr int64_t kServeRows = 20000;
constexpr int kServeClients = 3;
constexpr int kMutateEvery = 10;       // client 0: every 10th op is a MUTATE
constexpr int kConstantsPerTemplate = 100;
constexpr double kConstantZipf = 0.8;  // repeat distribution of constants

constexpr int kSetupReps = 15;
constexpr int kMinTailSamples = 10;  // samples beyond p95 a run must have

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an already sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Mean(double sum, double n) { return n > 0 ? sum / n : 0.0; }

// Host reference: a fixed CPU-only loop, timed before and after the
// workload so a reader can tell host drift from a program change.
double HostReferenceMs() {
  const Clock::time_point start = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  for (int i = 0; i < 30000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x % 1009;
  }
  const double ms = 1e3 * Seconds(start, Clock::now());
  if (acc == 42) std::fprintf(stderr, "#\n");  // keeps the loop observable
  return ms;
}

// ---------------------------------------------------------------------
// Benchmark-side spans (traced run only): each span names the layer the
// benchmark called into, with its parent span and query id.

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int64_t Begin(const char* name, int64_t parent, int64_t query) {
    const double now = 1e6 * Seconds(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now, now, parent, query});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id) {
    const double now = 1e6 * Seconds(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = now;
  }

  // Σ duration (ms) of the spans named `name` whose query id is at least
  // `min_query` (the timed phase's first id).
  double TotalMs(const std::string& name, int64_t min_query) const {
    std::lock_guard<std::mutex> lock(mu_);
    double sum = 0;
    for (const Span& s : spans_) {
      if (name == s.name && s.query >= min_query) {
        sum += (s.end_us - s.start_us) / 1e3;
      }
    }
    return sum;
  }

  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"parent\":%lld,\"query\":%lld}\n",
                    i, s.name, s.start_us, s.end_us,
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.query));
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;
    int64_t query;
  };
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a no-op when the run is untraced (log == nullptr).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1,
             int64_t query = -1)
      : log_(log), id_(log ? log->Begin(name, parent, query) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

// ---------------------------------------------------------------------
// Output: named metrics with units, and the run's operation counts.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // One operation; an error status makes it a failed operation.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "operation failed: %s\n", what.c_str());
    }
  }
  // One correctness check; a wrong result also makes the run incorrect.
  void Check(bool ok, const std::string& what) {
    Op(ok, "check " + what);
    correct = correct && ok;
  }
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintReport(const Report& report) {
  for (const Metric& m : report.metrics) {
    std::printf("# %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Latency percentiles over the timed queries; false when p95 would rest on
// fewer than kMinTailSamples samples beyond it.
bool AddLatencies(std::vector<double> latencies_ms, Report* report) {
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double p50 = Percentile(latencies_ms, 0.50);
  const double p95 = Percentile(latencies_ms, 0.95);
  const auto beyond = latencies_ms.end() -
                      std::upper_bound(latencies_ms.begin(),
                                       latencies_ms.end(), p95);
  std::printf("# latency samples %zu, beyond p95 %lld\n", latencies_ms.size(),
              static_cast<long long>(beyond));
  report->Add("latency_p50_ms", p50, "ms");
  report->Add("latency_p95_ms", p95, "ms");
  if (beyond < kMinTailSamples) {
    std::fprintf(stderr,
                 "latency_p95_ms rests on %lld samples beyond it (< %d): "
                 "the run is too short\n",
                 static_cast<long long>(beyond), kMinTailSamples);
    return false;
  }
  return true;
}

// Registry window helpers (obs::DiffMetrics over the timed phase).
double CounterSum(const std::vector<obs::MetricValue>& window,
                  const std::string& base) {
  double sum = 0;
  for (const obs::MetricValue& v : window) {
    std::string name, labels;
    obs::SplitMetricName(v.name, &name, &labels);
    if (name == base) {
      sum += v.kind == obs::MetricKind::kHistogram
                 ? v.hist_sum
                 : static_cast<double>(v.counter_value);
    }
  }
  return sum;
}

const obs::MetricValue* FindMetric(const std::vector<obs::MetricValue>& window,
                                   const std::string& name) {
  for (const obs::MetricValue& v : window) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// The paper's queries (olap_local and olap_sync).

struct PaperQuery {
  const char* name;
  GmdjExpr expr;
  // Output columns the benchmark recomputes from the generated rows
  // ("" = the query has no such column).
  const char* count_col;     // COUNT(*) per CustKey
  const char* qty_avg_col;   // SUM(Quantity) / COUNT(*) per CustKey
  const char* min_ship_col;  // MIN(ShipDate) per CustKey
};

std::vector<PaperQuery> PaperQueries() {
  const std::string g = "CustKey";
  return {
      {"fig2_group_reduction", queries::GroupReductionQuery(g), "cnt1", "avg1", ""},
      {"fig3_coalescing", queries::CoalescingQuery(g), "cnt1", "avg1", ""},
      {"fig4_sync_reduction", queries::SyncReductionQuery(g), "cnt1", "", ""},
      {"fig5_combined", queries::CombinedQuery(g), "cnt1", "avg1", ""},
      {"multi_feature", queries::MultiFeatureQuery(g), "", "", "first_ship"},
  };
}

// Per-CustKey COUNT(*), SUM(Quantity) and MIN(ShipDate), computed by the
// benchmark itself from the generated rows.
struct GroupTruth {
  int64_t count = 0;
  int64_t sum_qty = 0;
  int64_t min_ship = INT64_MAX;
};

std::unordered_map<int64_t, GroupTruth> Recompute(const Table& rows) {
  const Schema& s = rows.schema();
  const int cust = *s.IndexOf("CustKey");
  const int qty = *s.IndexOf("Quantity");
  const int ship = *s.IndexOf("ShipDate");
  std::unordered_map<int64_t, GroupTruth> truth;
  for (const Row& r : rows.rows()) {
    GroupTruth& t = truth[r[static_cast<size_t>(cust)].AsInt64()];
    ++t.count;
    t.sum_qty += r[static_cast<size_t>(qty)].AsInt64();
    t.min_ship = std::min(t.min_ship, r[static_cast<size_t>(ship)].AsInt64());
  }
  return truth;
}

bool MatchesTruth(const PaperQuery& q, const Table& result,
                  const std::unordered_map<int64_t, GroupTruth>& truth,
                  std::string* why) {
  if (result.num_rows() != static_cast<int64_t>(truth.size())) {
    *why = "group count " + std::to_string(result.num_rows()) + " != " +
           std::to_string(truth.size());
    return false;
  }
  const Schema& s = result.schema();
  auto col = [&](const char* name) -> int {
    if (name[0] == '\0') return -1;
    auto idx = s.IndexOf(name);
    return idx ? *idx : -2;
  };
  const int key = col("CustKey");
  const int cnt = col(q.count_col);
  const int avg = col(q.qty_avg_col);
  const int ship = col(q.min_ship_col);
  if (key < 0 || cnt == -2 || avg == -2 || ship == -2) {
    *why = "missing column";
    return false;
  }
  for (const Row& r : result.rows()) {
    auto it = truth.find(r[static_cast<size_t>(key)].AsInt64());
    if (it == truth.end()) {
      *why = "unknown group";
      return false;
    }
    const GroupTruth& t = it->second;
    if (cnt >= 0 && r[static_cast<size_t>(cnt)].ToDouble() !=
                        static_cast<double>(t.count)) {
      *why = "COUNT(*) differs";
      return false;
    }
    if (avg >= 0) {
      const double want =
          static_cast<double>(t.sum_qty) / static_cast<double>(t.count);
      const double got = r[static_cast<size_t>(avg)].ToDouble();
      if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
        *why = "SUM(Quantity)/COUNT(*) differs";
        return false;
      }
    }
    if (ship >= 0 && r[static_cast<size_t>(ship)].ToDouble() !=
                         static_cast<double>(t.min_ship)) {
      *why = "MIN(ShipDate) differs";
      return false;
    }
  }
  return true;
}

// Per-query sums of the accounting ExecutionMetrics returns.
struct Ledger {
  double queries = 0;
  double bytes = 0, response_s = 0;
  double rounds = 0, coord_s = 0, comm_s = 0;
  double site_sum_s = 0, site_max_s = 0;
  double max_over_mean = 0, max_over_mean_rounds = 0;
  double groups_to_sites = 0, groups_to_coord = 0;
  double bytes_to_sites = 0, bytes_to_coord = 0;
  double rows_scanned = 0, rows_matched = 0;
  double morsels_vec = 0, morsels_all = 0;
  double compression = 0, delta_saved = 0;

  void Add(const ExecutionMetrics& m) {
    queries += 1;
    bytes += static_cast<double>(m.TotalBytes());
    response_s += m.ResponseSeconds();
    rounds += m.NumRounds();
    for (const RoundMetrics& r : m.rounds) {
      coord_s += r.coord_cpu_sec;
      comm_s += r.comm_sec;
      site_sum_s += r.site_cpu_sum_sec;
      site_max_s += r.site_cpu_max_sec;
      double sum = 0, mx = 0;
      int n = 0;
      for (double s : r.site_seconds) {
        if (s <= 0) continue;
        sum += s;
        mx = std::max(mx, s);
        ++n;
      }
      if (n > 0 && sum > 0) {
        max_over_mean += mx / (sum / n);
        max_over_mean_rounds += 1;
      }
    }
    groups_to_sites += static_cast<double>(m.GroupsToSites());
    groups_to_coord += static_cast<double>(m.GroupsToCoord());
    bytes_to_sites += static_cast<double>(m.BytesToSites());
    bytes_to_coord += static_cast<double>(m.BytesToCoord());
    rows_scanned += static_cast<double>(m.DetailRowsScanned());
    rows_matched += static_cast<double>(m.DetailRowsMatched());
    morsels_vec += static_cast<double>(m.MorselsVectorized());
    morsels_all +=
        static_cast<double>(m.MorselsVectorized() + m.MorselsScalar());
    compression += m.CompressionRatio();
    delta_saved += static_cast<double>(m.BytesSavedByDelta());
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

// Setup-phase per-layer times, one entry per setup repetition.
struct SetupTimes {
  std::vector<double> total_s, generate_s, load_s, warmup_s;
  void Add(double gen, double load, double warm) {
    generate_s.push_back(gen);
    load_s.push_back(load);
    warmup_s.push_back(warm);
    total_s.push_back(gen + load + warm);
  }
};

void AddSetupLayers(const SetupTimes& setup, Report* report) {
  report->Add("tpc.generate_s", Median(setup.generate_s), "s");
  report->Add("skalla.load_s", Median(setup.load_s), "s");
  report->Add("skalla.warmup_s", Median(setup.warmup_s), "s");
}

// The serving layer is not on the warehouse workloads' path.
void AddServerLayersAbsent(Report* report) {
  report->Add("server.queue_wait_p50_ms", 0, "ms");
  report->Add("server.mutate_p50_ms", 0, "ms");
  report->Add("server.cache_hit_ratio", 0, "ratio");
  report->Add("server.prefix_hits", 0, "count");
  report->Add("server.invalidations", 0, "count");
  report->Add("server.response_bytes", 0, "bytes");
}

// ---------------------------------------------------------------------
// olap_local / olap_sync

int RunOlap(const Options& opt, bool sync, SpanLog& spans, Report& report) {
  SpanLog* log = opt.trace ? &spans : nullptr;
  std::vector<PaperQuery> mix = PaperQueries();

  TpcConfig config;
  config.seed = opt.seed;
  config.num_rows = sync ? kSyncRows : kLocalRows;
  config.num_customers = sync ? kSyncCustomers : kLocalCustomers;
  config.cust_zipf_s = sync ? 0.0 : kLocalZipf;

  std::unique_ptr<Warehouse> wh;
  Table generated;
  std::vector<uint64_t> expected(mix.size(), 0);
  std::vector<int> fan_in(mix.size(), 0);
  std::vector<Table> warm_results(mix.size());
  SetupTimes setup;
  int64_t next_query = 0;

  // One query through the workload's entry point. olap_local runs Plan +
  // ExecutePlan, the two halves of Warehouse::Execute, so traced and
  // untraced runs take one path; olap_sync runs ExecuteAuto and, traced,
  // times Plan beside it (the plan ExecuteAuto makes internally is not
  // observable from outside).
  auto run_query = [&](size_t qi, double* latency_ms) -> Result<QueryResult> {
    const int64_t query_id = next_query++;
    const GmdjExpr& expr = mix[qi].expr;
    if (sync) {
      if (log != nullptr) {
        ScopedSpan plan_span(log, "opt.plan", -1, query_id);
        auto plan = wh->Plan(expr, OptimizerOptions::All());
        if (!plan.ok()) return plan.status();
      }
      const Clock::time_point t0 = Clock::now();
      ScopedSpan q(log, "query", -1, query_id);
      Result<QueryResult> r = [&]() {
        ScopedSpan exec(log, "dist.execute", q.id(), query_id);
        return wh->ExecuteAuto(expr, &fan_in[qi]);
      }();
      *latency_ms = 1e3 * Seconds(t0, Clock::now());
      return r;
    }
    const Clock::time_point t0 = Clock::now();
    ScopedSpan q(log, "query", -1, query_id);
    Result<QueryResult> r = [&]() -> Result<QueryResult> {
      Result<DistributedPlan> plan = [&]() {
        ScopedSpan s(log, "opt.plan", q.id(), query_id);
        return wh->Plan(expr, OptimizerOptions::All());
      }();
      if (!plan.ok()) return plan.status();
      ScopedSpan s(log, "dist.execute", q.id(), query_id);
      return wh->ExecutePlan(*plan);
    }();
    *latency_ms = 1e3 * Seconds(t0, Clock::now());
    return r;
  };

  for (int rep = 0; rep < kSetupReps; ++rep) {
    wh.reset();
    generated = Table();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(log, "tpc.generate");
      generated = GenerateTpcr(config);
    }
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan s(log, "skalla.load");
      wh = std::make_unique<Warehouse>(sync ? kSyncSites : kLocalSites);
      const Status st =
          sync ? wh->LoadByHash("TPCR", generated, "CustKey")
               : wh->LoadByRange("TPCR", generated, "NationKey", 0,
                                 config.num_nations - 1, {"CustKey"});
      if (!st.ok()) {
        std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    const Clock::time_point t2 = Clock::now();
    {
      // The untimed warm-up pass builds the lazy columnar, hash-index and
      // statistics caches and records each query's result.
      ScopedSpan s(log, "skalla.warmup");
      for (size_t qi = 0; qi < mix.size(); ++qi) {
        double ms = 0;
        Result<QueryResult> r = run_query(qi, &ms);
        if (!r.ok()) {
          std::fprintf(stderr, "%s failed in warm-up: %s\n", mix[qi].name,
                       r.status().ToString().c_str());
          return 1;
        }
        expected[qi] = Serializer::ContentHash(r->table);
        warm_results[qi] = std::move(r->table);
      }
    }
    setup.Add(Seconds(t0, t1), Seconds(t1, t2), Seconds(t2, Clock::now()));
  }

  // Correctness, once per run outside the setup clock: the centralized
  // reference evaluator and the benchmark's own recomputation.
  {
    const auto truth = Recompute(generated);
    for (size_t qi = 0; qi < mix.size(); ++qi) {
      auto reference = wh->ExecuteCentralized(mix[qi].expr);
      report.Check(reference.ok() && warm_results[qi].SameRowMultiset(*reference),
                   std::string(mix[qi].name) + " != ExecuteCentralized");
      std::string why;
      report.Check(MatchesTruth(mix[qi], warm_results[qi], truth, &why),
                   std::string(mix[qi].name) + " vs recomputation: " + why);
    }
    std::printf("# sites %d, fragment rows:", wh->num_sites());
    for (int s = 0; s < wh->num_sites(); ++s) {
      auto frag = wh->site(s).catalog().GetTable("TPCR");
      std::printf(" %lld", frag.ok() ? static_cast<long long>((*frag)->num_rows()) : -1LL);
    }
    std::printf("\n# groups %zu, rows %lld\n", truth.size(),
                static_cast<long long>(generated.num_rows()));
    if (sync) {
      std::printf("# ExecuteAuto fan-in per query (0 = flat):");
      for (size_t qi = 0; qi < mix.size(); ++qi) {
        std::printf(" %s=%d", mix[qi].name, fan_in[qi]);
      }
      std::printf("\n");
    }
    warm_results.clear();
    generated = Table();
  }

  // Timed phase: one caller, closed loop, whole passes over a seeded
  // permutation of the mix. Result checks run off the clock.
  Rng order_rng(opt.seed * 7919 + (sync ? 2 : 1));
  std::vector<size_t> order(mix.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> latencies;
  Ledger ledger;
  double paused_s = 0, paused_cpu_s = 0;
  const int64_t first_timed = next_query;
  const auto registry_before = obs::SnapshotMetrics();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  while (Seconds(start, Clock::now()) - paused_s < opt.seconds) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(order_rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
    }
    for (size_t qi : order) {
      double ms = 0;
      Result<QueryResult> r = run_query(qi, &ms);
      const Clock::time_point c0 = Clock::now();
      const double ccpu0 = ThreadCpuSeconds();
      if (!r.ok()) {
        report.Op(false, std::string(mix[qi].name) + ": " +
                             r.status().ToString());
      } else {
        latencies.push_back(ms);
        ledger.Add(r->metrics);
        report.Check(Serializer::ContentHash(r->table) == expected[qi],
                     std::string(mix[qi].name) + " differs from its setup result");
      }
      paused_cpu_s += ThreadCpuSeconds() - ccpu0;
      paused_s += Seconds(c0, Clock::now());
    }
  }
  const double wall_s = Seconds(start, Clock::now()) - paused_s;
  const double cpu_s = ProcessCpuSeconds() - cpu0 - paused_cpu_s;
  const auto window = obs::DiffMetrics(registry_before, obs::SnapshotMetrics());
  const double n = ledger.queries;
  std::printf("# timed queries %.0f over %.3f s\n", n, wall_s);

  if (!opt.trace) {
    report.Add("setup_s", Median(setup.total_s), "s");
    report.Add("throughput_qps", n / wall_s, "1/s");
    if (!AddLatencies(latencies, &report)) return 1;
    report.Add("bytes_per_query", Mean(ledger.bytes, n), "bytes");
    report.Add("modelled_response_ms", 1e3 * Mean(ledger.response_s, n), "ms");
    report.Add("cpu_ms_per_query", 1e3 * Mean(cpu_s, n), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  // Per-layer ledger. Traced latency is the "query" span; olap_sync's
  // ExecuteAuto plans internally, so its dist.execute_ms is the
  // ExecuteAuto span less the separately timed Plan.
  const double latency_ms = Mean(spans.TotalMs("query", first_timed), n);
  const double plan_ms = Mean(spans.TotalMs("opt.plan", first_timed), n);
  const double execute_ms =
      Mean(spans.TotalMs("dist.execute", first_timed), n) - (sync ? plan_ms : 0);
  const double site_ms = 1e3 * Mean(ledger.site_sum_s, n);
  const double coord_ms = 1e3 * Mean(ledger.coord_s, n);
  const double unattributed_ms = execute_ms - site_ms - coord_ms;
  const double ledger_ms = plan_ms + site_ms + coord_ms + unattributed_ms;
  std::printf("# ledger: plan %.3f + site %.3f + coord %.3f + unattributed "
              "%.3f = %.3f ms vs traced latency %.3f ms (%+.2f%%)\n",
              plan_ms, site_ms, coord_ms, unattributed_ms, ledger_ms,
              latency_ms, 100.0 * (ledger_ms - latency_ms) / latency_ms);
  AddSetupLayers(setup, &report);
  report.Add("sql.parse_ms", 0, "ms");
  report.Add("opt.plan_ms", plan_ms, "ms");
  report.Add("opt.estimate_ms", 0, "ms");
  report.Add("dist.execute_ms", execute_ms, "ms");
  report.Add("dist.rounds", Mean(ledger.rounds, n), "count");
  report.Add("dist.coord_ms", coord_ms, "ms");
  report.Add("dist.unattributed_ms", unattributed_ms, "ms");
  report.Add("dist.groups_to_sites", Mean(ledger.groups_to_sites, n), "count");
  report.Add("dist.groups_to_coord", Mean(ledger.groups_to_coord, n), "count");
  report.Add("gmdj.site_ms", site_ms, "ms");
  report.Add("gmdj.site_max_ms", 1e3 * Mean(ledger.site_max_s, n), "ms");
  report.Add("gmdj.site_max_over_mean",
             Mean(ledger.max_over_mean, ledger.max_over_mean_rounds), "ratio");
  report.Add("gmdj.rows_scanned", Mean(ledger.rows_scanned, n), "count");
  report.Add("gmdj.rows_matched", Mean(ledger.rows_matched, n), "count");
  report.Add("gmdj.scan_mrows_per_s",
             Mean(ledger.rows_scanned / 1e6, ledger.site_sum_s), "Mrows/s");
  report.Add("gmdj.vectorized_share",
             Mean(ledger.morsels_vec, ledger.morsels_all), "ratio");
  report.Add("net.bytes_to_sites", Mean(ledger.bytes_to_sites, n), "bytes");
  report.Add("net.bytes_to_coord", Mean(ledger.bytes_to_coord, n), "bytes");
  report.Add("net.comm_ms", 1e3 * Mean(ledger.comm_s, n), "ms");
  report.Add("storage.encode_ms",
             1e3 * Mean(CounterSum(window, "skalla_storage_encode_seconds"), n),
             "ms");
  report.Add("storage.compression_ratio", Mean(ledger.compression, n), "ratio");
  report.Add("storage.delta_saved_bytes", Mean(ledger.delta_saved, n), "bytes");
  report.Add("common.pool_tasks",
             Mean(CounterSum(window, "skalla_pool_tasks_total"), n), "count");
  AddServerLayersAbsent(&report);
  report.Add("trace.latency_mean_ms", latency_ms, "ms");
  report.Add("trace.throughput_qps", n / wall_s, "1/s");
  return 0;
}

// ---------------------------------------------------------------------
// serve_rw

// Read templates; {} is replaced by a constant drawn per request.
struct ReadTemplate {
  const char* text;
  int scale;  // constant = scale * Zipf rank
  int offset;
};

const ReadTemplate kReadTemplates[] = {
    {"SELECT CustKey, COUNT(*) AS cnt, SUM(Quantity) AS sq FROM TPCR "
     "WHERE Quantity >= {} GROUP BY CustKey", 1, 1},
    {"SELECT ClerkKey, COUNT(*) AS cnt FROM TPCR WHERE OrderDate >= {} "
     "GROUP BY ClerkKey", 80, 0},
    {"SELECT NationKey, COUNT(*) AS cnt, SUM(Quantity) AS sq FROM TPCR "
     "GROUP BY NationKey EXTEND COUNT(*) AS big WHERE Quantity > sq / cnt + {}",
     1, -15},
    {"SELECT CustKey, COUNT(*) AS cnt FROM TPCR GROUP BY CustKey "
     "EXTEND SUM(Quantity) AS sq WHERE Quantity >= {}", 1, 1},
    {"SELECT MktSegment, COUNT(*) AS cnt, SUM(Quantity) AS sq FROM TPCR "
     "GROUP BY MktSegment EXTEND COUNT(*) AS big WHERE Quantity > sq / cnt "
     "EXTEND SUM(ExtendedPrice) AS late WHERE ShipDate >= {}", 24, 0},
};
constexpr size_t kNumReadTemplates = sizeof(kReadTemplates) / sizeof(kReadTemplates[0]);

std::string ReadText(size_t t, int64_t rank) {
  std::string text = kReadTemplates[t].text;
  const int64_t c = kReadTemplates[t].offset + kReadTemplates[t].scale * rank;
  text.replace(text.find("{}"), 2, std::to_string(c));
  return text;
}

// Per-client results of the timed phase.
struct ClientLog {
  std::vector<double> query_ms, mutate_ms;
  std::set<std::string> texts;
  double response_bytes = 0;
  int64_t attempted = 0, failed = 0, acked_appends = 0;
};

std::optional<double> ParseResponseSeconds(const std::string& profile) {
  const std::string key = "response_seconds ";
  const size_t at = profile.find(key);
  if (at == std::string::npos) return std::nullopt;
  return std::atof(profile.c_str() + at + key.size());
}

int RunServe(const Options& opt, SpanLog& spans, Report& report) {
  SpanLog* log = opt.trace ? &spans : nullptr;
  const std::string q_opts = "QUERY THREADS 1 ";
  const std::string fresh_opts = "QUERY NOCACHE THREADS 1 ";

  std::unique_ptr<server::Server> srv;
  std::vector<std::string> appends;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    srv.reset();
    const Clock::time_point t0 = Clock::now();
    server::ServerOptions options;
    options.admission.max_concurrent = kServeClients;
    srv = std::make_unique<server::Server>(kServeSites, options);
    server::Client admin(srv.get());
    {
      ScopedSpan s(log, "skalla.load");
      auto loaded = admin.Call("LOAD tpcr " + std::to_string(kServeRows));
      if (!loaded.ok()) {
        std::fprintf(stderr, "LOAD failed: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
    }
    const Clock::time_point t1 = Clock::now();
    {
      // Untimed warm-up: every template once, uncached, so the lazy
      // columnar and statistics caches exist before timing starts.
      ScopedSpan s(log, "skalla.warmup");
      for (size_t t = 0; t < kNumReadTemplates; ++t) {
        auto r = admin.Call(fresh_opts + ReadText(t, 0));
        if (!r.ok()) {
          std::fprintf(stderr, "warm-up query failed: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
      }
    }
    setup.Add(0, Seconds(t0, t1), Seconds(t1, Clock::now()));
  }

  // Appended rows are copies of seeded picks among the loaded rows, so
  // the φ that admitted the original admits the copy.
  {
    auto table = srv->warehouse().central_catalog().GetTable("TPCR");
    if (!table.ok()) return 1;
    Rng pick(opt.seed * 104729 + 3);
    for (int i = 0; i < 64; ++i) {
      Table one((*table)->schema_ptr());
      one.AddRow((*table)->row(pick.Uniform(0, (*table)->num_rows() - 1)));
      std::string csv = CsvToString(one);
      std::string row = csv.substr(csv.find('\n') + 1);
      while (!row.empty() && row.back() == '\n') row.pop_back();
      appends.push_back("MUTATE TPCR APPEND " + row);
    }
  }

  std::vector<ClientLog> logs(kServeClients);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> next_query{0};
  const server::ServerStats stats0 = srv->stats();
  const auto registry_before = obs::SnapshotMetrics();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c]() {
      ClientLog& out = logs[static_cast<size_t>(c)];
      server::Client client(srv.get());
      Rng rng(opt.seed * 1000003 + static_cast<uint64_t>(c) * 7919 + 17);
      for (int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        ++out.attempted;
        if (c == 0 && i % kMutateEvery == kMutateEvery - 1) {
          const std::string& cmd =
              appends[static_cast<size_t>(i / kMutateEvery) % appends.size()];
          ScopedSpan span(log, "client.mutate");
          const Clock::time_point t0 = Clock::now();
          auto r = client.Call(cmd);
          out.mutate_ms.push_back(1e3 * Seconds(t0, Clock::now()));
          if (r.ok()) {
            ++out.acked_appends;
          } else {
            ++out.failed;
            std::fprintf(stderr, "MUTATE failed: %s\n",
                         r.status().ToString().c_str());
          }
          continue;
        }
        const size_t t = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(kNumReadTemplates) - 1));
        const std::string text =
            ReadText(t, rng.Zipf(kConstantsPerTemplate, kConstantZipf));
        const int64_t query_id = next_query.fetch_add(1);
        ScopedSpan span(log, "client.query", -1, query_id);
        if (log != nullptr) {
          ScopedSpan parse(log, "sql.parse", span.id(), query_id);
          if (!ParseOlapQuery(text).ok()) ++out.failed;
        }
        const Clock::time_point t0 = Clock::now();
        auto r = client.Call(q_opts + text);
        const double ms = 1e3 * Seconds(t0, Clock::now());
        out.texts.insert(text);
        if (r.ok()) {
          out.query_ms.push_back(ms);
          out.response_bytes += static_cast<double>(r->size());
        } else {
          ++out.failed;
          std::fprintf(stderr, "QUERY failed: %s\n",
                       r.status().ToString().c_str());
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double wall_s = Seconds(start, Clock::now());
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const auto window = obs::DiffMetrics(registry_before, obs::SnapshotMetrics());
  const server::ServerStats stats1 = srv->stats();

  std::vector<double> query_ms, mutate_ms;
  std::set<std::string> texts;
  double response_bytes = 0;
  int64_t acked = 0;
  for (const ClientLog& l : logs) {
    query_ms.insert(query_ms.end(), l.query_ms.begin(), l.query_ms.end());
    mutate_ms.insert(mutate_ms.end(), l.mutate_ms.begin(), l.mutate_ms.end());
    texts.insert(l.texts.begin(), l.texts.end());
    response_bytes += l.response_bytes;
    acked += l.acked_appends;
    report.attempted += l.attempted;
    report.failed += l.failed;
  }
  const double n = static_cast<double>(query_ms.size());
  const double hits = static_cast<double>(stats1.cache.hits - stats0.cache.hits);
  const double misses =
      static_cast<double>(stats1.cache.misses - stats0.cache.misses);
  std::printf("# timed queries %.0f + mutations %zu over %.3f s, %zu distinct "
              "texts, cache hit ratio %.4f\n",
              n, mutate_ms.size(), wall_s, texts.size(),
              Mean(hits, hits + misses));
  std::printf("# MUTATE waits (ms):");
  for (double ms : mutate_ms) std::printf(" %.1f", ms);
  std::printf("\n");

  // Verification with serving quiesced: each distinct text's served
  // response equals an uncached re-execution (kServeClients checkers in
  // parallel), and the grouped COUNT(*) total equals the loaded rows plus
  // the acknowledged appends.
  const std::vector<std::string> distinct(texts.begin(), texts.end());
  std::vector<std::optional<double>> response_s(distinct.size());
  std::vector<char> same(distinct.size(), 0);
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> checkers;
    for (int c = 0; c < kServeClients; ++c) {
      checkers.emplace_back([&]() {
        server::Client checker(srv.get());
        for (size_t i = next++; i < distinct.size(); i = next++) {
          auto served = checker.Call(q_opts + distinct[i]);
          auto fresh = checker.Call(fresh_opts + distinct[i]);
          same[i] = served.ok() && fresh.ok() && *served == *fresh;
          auto profile = checker.Call("PROFILE NOCACHE THREADS 1 " + distinct[i]);
          if (profile.ok()) response_s[i] = ParseResponseSeconds(*profile);
        }
      });
    }
    for (std::thread& t : checkers) t.join();
  }
  double response_sum = 0;
  for (size_t i = 0; i < distinct.size(); ++i) {
    report.Check(same[i], "served response differs from NOCACHE: " + distinct[i]);
    report.Check(response_s[i].has_value(), "PROFILE without totals: " + distinct[i]);
    response_sum += response_s[i].value_or(0);
  }
  std::vector<double> plan_ms, estimate_ms;
  if (log != nullptr) {
    // The server's planning and pre-admission pricing, called directly on
    // the quiesced warehouse.
    Warehouse& wh = srv->warehouse();
    for (const std::string& text : distinct) {
      auto expr = ParseOlapQuery(text);
      if (!expr.ok()) continue;
      const Clock::time_point t0 = Clock::now();
      auto plan = wh.Plan(*expr, OptimizerOptions::All());
      const Clock::time_point t1 = Clock::now();
      if (!plan.ok()) continue;
      auto cost = wh.EstimateCost(*plan);
      const Clock::time_point t2 = Clock::now();
      plan_ms.push_back(1e3 * Seconds(t0, t1));
      if (cost.ok()) estimate_ms.push_back(1e3 * Seconds(t1, t2));
    }
  }
  server::Client checker(srv.get());
  {
    auto counts = checker.Call(
        "QUERY NOCACHE SELECT NationKey, COUNT(*) AS cnt FROM TPCR "
        "GROUP BY NationKey");
    int64_t total = -1;
    if (counts.ok()) {
      total = 0;
      std::istringstream lines(*counts);
      std::string line;
      std::getline(lines, line);  // header
      while (std::getline(lines, line)) {
        const size_t comma = line.rfind(',');
        if (comma != std::string::npos) total += std::atoll(line.c_str() + comma + 1);
      }
    }
    std::printf("# COUNT(*) total %lld = %lld loaded + %lld appended\n",
                static_cast<long long>(total),
                static_cast<long long>(kServeRows),
                static_cast<long long>(acked));
    report.Check(total == kServeRows + acked,
                 "COUNT(*) total != loaded rows + acknowledged appends");
  }

  const double bytes_shipped = CounterSum(window, "skalla_dist_bytes_shipped_total");
  if (!opt.trace) {
    report.Add("setup_s", Median(setup.total_s), "s");
    report.Add("throughput_qps", n / wall_s, "1/s");
    if (!AddLatencies(query_ms, &report)) return 1;
    report.Add("bytes_per_query", Mean(bytes_shipped, n), "bytes");
    report.Add("modelled_response_ms",
               1e3 * Mean(response_sum, static_cast<double>(distinct.size())),
               "ms");
    report.Add("cpu_ms_per_query", 1e3 * Mean(cpu_s, n), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  double bytes_in = 0, bytes_out = 0;
  for (const obs::MetricValue& v : window) {
    std::string name, labels;
    obs::SplitMetricName(v.name, &name, &labels);
    if (name != "skalla_dist_site_bytes_total") continue;
    (labels.find("dir=\"in\"") != std::string::npos ? bytes_in : bytes_out) +=
        static_cast<double>(v.counter_value);
  }
  const obs::MetricValue* wait =
      FindMetric(window, "skalla_server_queue_wait_seconds{lane=\"normal\"}");
  AddSetupLayers(setup, &report);
  report.Add("sql.parse_ms", Mean(spans.TotalMs("sql.parse", 0), n), "ms");
  report.Add("opt.plan_ms", Median(plan_ms), "ms");
  report.Add("opt.estimate_ms", Median(estimate_ms), "ms");
  report.Add("dist.execute_ms", 0, "ms");
  report.Add("dist.rounds", Mean(CounterSum(window, "skalla_dist_rounds_total"), n),
             "count");
  report.Add("dist.coord_ms", 0, "ms");
  report.Add("dist.unattributed_ms", 0, "ms");
  report.Add("dist.groups_to_sites", 0, "count");
  report.Add("dist.groups_to_coord", 0, "count");
  report.Add("gmdj.site_ms", 0, "ms");
  report.Add("gmdj.site_max_ms", 0, "ms");
  report.Add("gmdj.site_max_over_mean", 0, "ratio");
  report.Add("gmdj.rows_scanned",
             Mean(CounterSum(window, "skalla_gmdj_rows_scanned_total"), n), "count");
  report.Add("gmdj.rows_matched",
             Mean(CounterSum(window, "skalla_gmdj_rows_matched_total"), n), "count");
  report.Add("gmdj.scan_mrows_per_s", 0, "Mrows/s");
  report.Add("gmdj.vectorized_share", 0, "ratio");
  report.Add("net.bytes_to_sites", Mean(bytes_in, n), "bytes");
  report.Add("net.bytes_to_coord", Mean(bytes_out, n), "bytes");
  report.Add("net.comm_ms", 0, "ms");
  report.Add("storage.encode_ms",
             1e3 * Mean(CounterSum(window, "skalla_storage_encode_seconds"), n),
             "ms");
  report.Add("storage.compression_ratio", 0, "ratio");
  report.Add("storage.delta_saved_bytes",
             Mean(CounterSum(window, "skalla_dist_bytes_saved_by_delta_total"), n),
             "bytes");
  report.Add("common.pool_tasks",
             Mean(CounterSum(window, "skalla_pool_tasks_total"), n), "count");
  report.Add("server.queue_wait_p50_ms", wait ? 1e3 * wait->Quantile(0.5) : 0,
             "ms");
  report.Add("server.mutate_p50_ms", Median(mutate_ms), "ms");
  report.Add("server.cache_hit_ratio", Mean(hits, hits + misses), "ratio");
  report.Add("server.prefix_hits",
             Mean(static_cast<double>(stats1.cache.prefix_hits -
                                      stats0.cache.prefix_hits), n),
             "count");
  report.Add("server.invalidations",
             Mean(static_cast<double>(stats1.cache.invalidations -
                                      stats0.cache.invalidations),
                  static_cast<double>(mutate_ms.size())),
             "count");
  report.Add("server.response_bytes", Mean(response_bytes, n), "bytes");
  report.Add("trace.latency_mean_ms", Mean(spans.TotalMs("client.query", 0), n),
             "ms");
  report.Add("trace.throughput_qps", n / wall_s, "1/s");
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--spans") {
      opt.spans_path = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  const bool olap = opt.workload == "olap_local" || opt.workload == "olap_sync";
  if (!olap && opt.workload != "serve_rw") {
    std::fprintf(stderr, "unknown --workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  const double host_before = HostReferenceMs();
  SpanLog spans;
  Report report;
  const int rc = olap ? RunOlap(opt, opt.workload == "olap_sync", spans, report)
                      : RunServe(opt, spans, report);
  if (rc != 0) return rc;
  std::printf("# host_ref_ms before %.3f after %.3f\n", host_before,
              HostReferenceMs());
  if (opt.trace && !opt.spans_path.empty() && !spans.Write(opt.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opt.spans_path.c_str());
    return 1;
  }
  std::printf("# attempted %lld, failed %lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  PrintReport(report);
  return 0;
}
