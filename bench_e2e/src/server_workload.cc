// server_mix: SQL in, result bytes out, through an in-process
// server::Server configured like bipie_server (admission slots = hardware
// concurrency) on a lineitem table that fits in the LLC.
//
// The mix is Q1, Q6 and a selective 30-day grouped window, literals drawn
// from the seed. On a table this small, fixed per-query costs — parse,
// admission, dispatch, merge, wire encoding — weigh far more than in the
// scan workloads.
//
// Both runs start with the unloaded probe: one connection sends closed-loop
// queries with num_threads = 1 to an otherwise idle server, cycling through
// the mix. The timed run is only that probe; its round trips and server-side
// execution times are the gated metrics. The traced run follows the probe
// with an open-loop rate ladder low/mid/high/peak/over over four
// connections, each session with num_threads = 0 (the pool), and reports the
// ladder as per-layer metrics. Each connection draws Poisson arrivals at a
// quarter of the step's rate and sends each query at its scheduled time, or
// as soon as its previous query returns. Latency runs from the scheduled
// time, so queueing anywhere — in the generator's connection, the admission
// queue or the pool — is charged to the server.
//
// Nothing pooled is gated: a pooled query waits for the slowest of four
// shared vCPUs, and on the reference machine every pooled figure tried moved
// too much from run to run for a bound of 10% (interquartile share over ten
// seeds: fastest round trip per template across the ladder 23%, median of
// the per-step fastest 13%, process CPU time per query 17%; the one-worker
// probe moved 3-4%).
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "baseline/hash_agg.h"
#include "common/cycle_timer.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "core/scan.h"
#include "replay.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/parser.h"
#include "tpch/lineitem.h"
#include "workloads.h"

namespace bipie::e2e {
namespace {

// Set-ups per run; each takes ~0.4 s, so nine keep the median steady.
constexpr int kSetupRepeats = 9;

// 2^20 rows saves to ~10 MB: resident in the LLC, so the scan kernels are
// cheap and the fixed per-query path shows.
constexpr size_t kMixRows = size_t{1} << 20;
constexpr size_t kSmokeRows = size_t{1} << 14;
constexpr size_t kTemplates = 3;    // Q1, Q6, window
constexpr size_t kMixQueries = 48;  // distinct (template, literals) pairs
constexpr size_t kMaxConnections = 4;
// Probe queries per second of --seconds, frozen so every commit sends the
// same number: 3,000 at the default 10 s, about 8 s of round trips on the
// reference machine.
constexpr double kNominalUnloadedQps = 300;
constexpr size_t kSmokeUnloaded = 30;

constexpr const char* kStepNames[] = {"low", "mid", "high", "peak", "over"};
constexpr size_t kSteps = 5;
// Latency objective on each step's tail: ten times 2.29 ms, the median of
// the unloaded probe's p50 over the 20 timed runs in results/set1 and
// results/set2 (4 vCPUs, AVX-512). Fixed; never retuned.
constexpr double kSloMs = 23.0;
// Offered rates in queries/s, frozen at 20/40/60/90/120% of 987 qps, the
// capacity within that objective: the median of MaxRateWithinSlo over the
// ten traced runs in results/ladder_calibration/, made by this code with the
// ladder set to 260/520/780/1170/1560 qps (quartiles 946 and 1190 qps;
// ladder_capacity.py recomputes them from the logs). Those runs saturated at
// a median of 1348 qps achieved.
constexpr double kLadderQps[kSteps] = {197, 395, 592, 888, 1184};
constexpr double kSmokeLadderQps[kSteps] = {20, 40, 60, 90, 120};

// Day numbers of January 1st, 1993..1998 (Q6's year parameter).
constexpr int64_t kYearStart[] = {366, 731, 1096, 1461, 1827, 2192};

struct MixQuery {
  std::string sql;
  QuerySpec spec;
  QueryResult oracle;
};

std::vector<MixQuery> BuildMix(const Table& table, uint64_t seed,
                               std::string* error) {
  Rng rng(seed ^ 0x5e2fe41d3cULL);
  std::vector<MixQuery> mix;
  for (size_t i = 0; i < kMixQueries; ++i) {
    MixQuery q;
    switch (i % kTemplates) {
      case 0:  // TPC-H Q1 with DELTA in [60, 120] days
        q.sql = Q1Sql(kShipDateMax - rng.NextInRange(60, 120));
        break;
      case 1: {  // TPC-H Q6: year, discount +-0.01, quantity 24 or 25
        const int64_t year = rng.NextInRange(0, 4);
        const int64_t discount = rng.NextInRange(2, 9);
        q.sql = Q6Sql(kYearStart[year], kYearStart[year + 1] - 1,
                      discount - 1, discount + 1,
                      rng.NextInRange(24, 25) * 100);
        break;
      }
      default: {  // 30-day grouped window, ~1.2% of rows
        const int64_t lo = rng.NextInRange(kShipDateMin, kShipDateMax - 29);
        q.sql = WindowSql(lo, lo + 29);
        break;
      }
    }
    Result<ParsedQuery> parsed = ParseQuery(q.sql, table);
    if (!parsed.ok()) {
      *error = "mix query does not parse: " + parsed.status().ToString();
      return {};
    }
    q.spec = parsed.value().spec;
    Result<QueryResult> oracle = ExecuteQueryHashAgg(table, q.spec);
    if (!oracle.ok()) {
      *error = "oracle failed: " + oracle.status().ToString();
      return {};
    }
    q.oracle = std::move(oracle.value());
    mix.push_back(std::move(q));
  }
  return mix;
}

struct Sample {
  double offset_s = 0;     // scheduled send, from the step start
  double latency_ms = 0;   // completion - scheduled send
  double lag_ms = 0;       // send - when the connection was free to send
  double rtt_ms = 0;       // completion - actual send
  double queue_us = 0;     // server admission wait (Stats frame)
  double exec_us = 0;      // server execution (Stats frame)
  double done_s = 0;       // completion, from the step start
  bool ok = false;
  size_t instance = 0;     // index into the mix
};

struct Outcome {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t unavailable = 0;
  uint64_t errors = 0;
  std::vector<std::string> notes;

  void Absorb(const Outcome& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    attempted += other.attempted;
    failed += other.failed;
    rejected += other.rejected;
    unavailable += other.unavailable;
    errors += other.errors;
    notes.insert(notes.end(), other.notes.begin(), other.notes.end());
  }
};

// Sends `q` and checks its answer. `scheduled` is when the query was due,
// `free_at` when the connection finished its previous query; times in the
// sample are relative to `origin`.
void SendChecked(server::Client* client, const MixQuery& q, size_t instance,
                 Clock::time_point origin, Clock::time_point scheduled,
                 Clock::time_point free_at, bool traced, Outcome* out) {
  const Clock::time_point sent = Clock::now();
  QueryResult result;
  server::QueryStatsWire wire;
  const Status status = client->Query(q.sql, &result, &wire);
  const Clock::time_point done = Clock::now();
  ++out->attempted;
  Sample s;
  s.instance = instance;
  s.offset_s = std::chrono::duration<double>(scheduled - origin).count();
  s.latency_ms = MsBetween(scheduled, done);
  s.lag_ms = MsBetween(std::max(scheduled, free_at), sent);
  s.rtt_ms = MsBetween(sent, done);
  s.queue_us = wire.queue_wait_ns / 1e3;
  s.exec_us = wire.exec_ns / 1e3;
  s.done_s = std::chrono::duration<double>(done - origin).count();
  std::string why;
  if (!status.ok()) {
    if (status.code() == StatusCode::kResourceExhausted) {
      ++out->rejected;
    } else if (status.code() == StatusCode::kUnavailable) {
      ++out->unavailable;
    } else {
      ++out->errors;
    }
    why = status.ToString();
  } else if (SameResult(result, q.oracle, &why)) {
    s.ok = true;
  }
  if (!s.ok) {
    ++out->failed;
    if (out->notes.size() < 5) out->notes.push_back(why);
  }
  out->samples.push_back(s);
  if (traced) {
    const auto ns = &SpanRecorder::ToNs;
    const uint64_t id = Spans().NewQueryId();
    const uint64_t request =
        Spans().Add("server.request", 0, id, ns(scheduled), ns(done));
    Spans().Add("loadgen.wait_connection", request, id, ns(scheduled),
                ns(sent));
    const uint64_t rtt =
        Spans().Add("server.round_trip", request, id, ns(sent), ns(done));
    Spans().Attach(rtt, "exec.queue_wait_us", s.queue_us);
    Spans().Attach(rtt, "exec.exec_us", s.exec_us);
  }
}

// Query k of a connection runs template (k + connection) % 3, so every
// stretch of the load holds the three templates in equal shares; the
// instance (its literals) is drawn at random from that template's. Returns
// the index into the mix (instance i has template i % 3).
size_t PickQuery(size_t mix_size, size_t k, size_t connection, Rng* rng) {
  const size_t tmpl = (k + connection) % kTemplates;
  return tmpl + kTemplates * rng->NextBounded(mix_size / kTemplates);
}

// The load generator stands in for clients on other machines: its threads
// run above the server's pool (real-time, else a lower nice value), so a
// busy pool does not make them send late. They only sleep, send and wait
// on the socket, so they never hold a CPU for long. Best effort; without
// the privilege the lag metric shows the effect.
void RaiseGeneratorPriority() {
  sched_param param{};
  param.sched_priority = 1;
  if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) != 0) {
    setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), -10);
  }
}

// One connection's share of one ladder step: Poisson arrivals at `rate`
// over `duration_s`.
void DriveConnection(server::Client* client, size_t connection,
                     const std::vector<MixQuery>& mix, double rate,
                     double duration_s, uint64_t seed,
                     Clock::time_point step_start, bool traced,
                     Outcome* out) {
  RaiseGeneratorPriority();
  Rng rng(seed);
  double at = 0;
  Clock::time_point free_at = step_start;
  for (size_t k = 0;; ++k) {
    at += -std::log(1.0 - rng.NextDouble()) / rate;
    if (at >= duration_s) break;
    const size_t i = PickQuery(mix.size(), k, connection, &rng);
    const Clock::time_point scheduled =
        step_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(at));
    std::this_thread::sleep_until(scheduled);
    SendChecked(client, mix[i], i, step_start, scheduled, free_at, traced,
                out);
    free_at = Clock::now();
  }
}

struct StepStats {
  Summary latency;
  double lag_p99_ms = 0;
  double achieved_qps = 0;
  bool backlog_grew = false;
};

StepStats Analyze(const std::vector<Sample>& samples, double duration_s) {
  StepStats st;
  std::vector<double> latency, lag, first, last;
  double last_done = 0;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    latency.push_back(s.latency_ms);
    lag.push_back(s.lag_ms);
    if (s.offset_s < duration_s / 4) first.push_back(s.latency_ms);
    if (s.offset_s >= duration_s * 3 / 4) last.push_back(s.latency_ms);
    last_done = std::max(last_done, s.done_s);
  }
  st.latency = Summarize(latency);
  st.lag_p99_ms = Percentile(lag, 99);
  // Completions over the time until the last one: a backlogged step takes
  // longer than its schedule, and dividing by the schedule would report
  // the offered rate as achieved.
  st.achieved_qps =
      last_done > 0 ? static_cast<double>(latency.size()) /
                          std::max(last_done, duration_s)
                    : 0;
  // A backlog that keeps growing shows as late arrivals waiting far longer
  // than early ones in the same step.
  const double early = Summarize(first).p50;
  st.backlog_grew = Summarize(last).p50 > std::max(2 * early, kSloMs);
  return st;
}

// The highest rate meeting the SLO, interpolated in log-latency between the
// last passing step and the first failing one (a step fails when its tail
// is over the SLO or its backlog grew), so the figure moves smoothly with
// the system instead of jumping a whole ladder step.
double MaxRateWithinSlo(const double* rates, const StepStats* steps) {
  for (size_t i = 0; i < kSteps; ++i) {
    const bool pass = !steps[i].backlog_grew && steps[i].latency.tail > 0 &&
                      steps[i].latency.tail <= kSloMs;
    if (pass) continue;
    const double tail_hi = std::max(steps[i].latency.tail, kSloMs * 1.0001);
    const double r_lo = i == 0 ? 0.0 : rates[i - 1];
    const double tail_lo =
        i == 0 ? std::min(kSloMs / 10, tail_hi) : steps[i - 1].latency.tail;
    const double f = (std::log(kSloMs) - std::log(tail_lo)) /
                     (std::log(tail_hi) - std::log(tail_lo));
    return r_lo + std::clamp(f, 0.0, 1.0) * (rates[i] - r_lo);
  }
  return rates[kSteps - 1];
}

// The unloaded probe: `count` closed-loop queries on `client`, cycling
// through the mix. The caller sets the session's num_threads.
Outcome ProbeUnloaded(server::Client* client, const std::vector<MixQuery>& mix,
                      size_t count, bool traced) {
  Outcome out;
  const Clock::time_point origin = Clock::now();
  for (size_t k = 0; k < count; ++k) {
    const size_t i = k % mix.size();
    const Clock::time_point now = Clock::now();
    SendChecked(client, mix[i], i, origin, now, now, traced, &out);
  }
  return out;
}

struct Ladder {
  Outcome outcome[kSteps];
  StepStats stats[kSteps];
};

// The open-loop rate ladder: each step offers rates[step] queries/s for
// `step_s` seconds, split evenly over the connections.
void RunLadder(const std::vector<std::unique_ptr<server::Client>>& clients,
               const std::vector<MixQuery>& mix, const double* rates,
               double step_s, uint64_t seed, Ladder* ladder) {
  const size_t connections = clients.size();
  for (size_t step = 0; step < kSteps; ++step) {
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    std::vector<Outcome> per_conn(connections);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        DriveConnection(clients[c].get(), c, mix, rates[step] / connections,
                        step_s, seed * 1000003 + step * 16 + c, start,
                        /*traced=*/true, &per_conn[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Outcome& pc : per_conn) ladder->outcome[step].Absorb(pc);
    ladder->stats[step] = Analyze(ladder->outcome[step].samples, step_s);
  }
}

void Fail(WorkloadResult* out, std::string why) {
  ++out->attempted;
  ++out->failed;
  out->notes.push_back(std::move(why));
}

}  // namespace

WorkloadResult RunServerMix(const RunConfig& config) {
  WorkloadResult out;
  LineitemOptions gen;
  gen.num_rows = config.smoke ? kSmokeRows : kMixRows;
  gen.seed = config.seed;
  const SetupResult setup =
      TimedSetup([&] { return MakeLineitemTable(gen); },
                 config.work_dir + "/mix_lineitem.bipie",
                 config.smoke ? 1 : kSetupRepeats);
  const Table& table = setup.table;
  const size_t rows = table.num_rows();

  std::string error;
  const std::vector<MixQuery> mix = BuildMix(table, config.seed, &error);
  if (mix.empty()) {
    Fail(&out, error);
    return out;
  }

  server::ServerOptions options;
  options.port = 0;
  options.admission.max_concurrent_queries =
      std::max(1u, std::thread::hardware_concurrency());
  server::Server server(options);
  server.AddTable("lineitem", &table);
  if (const Status st = server.Start(); !st.ok()) {
    Fail(&out, "server start failed: " + st.ToString());
    return out;
  }

  const size_t connections = std::min<size_t>(
      kMaxConnections, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::unique_ptr<server::Client>> clients;
  for (size_t c = 0; c < connections; ++c) {
    auto client = std::make_unique<server::Client>();
    Status st = client->Connect("127.0.0.1", server.port());
    if (st.ok()) st = client->Set("num_threads", "0");
    if (!st.ok()) {
      Fail(&out, "connect failed: " + st.ToString());
      server.Shutdown();
      return out;
    }
    clients.push_back(std::move(client));
  }
  // Warm-up: every mix query once, spread over the connections.
  for (size_t i = 0; i < mix.size(); ++i) {
    QueryResult result;
    const Status st = clients[i % connections]->Query(mix[i].sql, &result);
    ++out.attempted;
    std::string why;
    if (!st.ok() || !SameResult(result, mix[i].oracle, &why)) {
      ++out.failed;
      out.notes.push_back("warm-up mismatch: " +
                          (st.ok() ? why : st.ToString()));
    }
  }

  MemoryTracker::Process().ResetPeak();
  if (const Status st = clients[0]->Set("num_threads", "1"); !st.ok()) {
    Fail(&out, "SET num_threads = 1 failed: " + st.ToString());
  }
  const Outcome unloaded = ProbeUnloaded(
      clients[0].get(), mix,
      config.smoke ? kSmokeUnloaded
                   : static_cast<size_t>(std::llround(config.seconds *
                                                      kNominalUnloadedQps)),
      config.traced());
  const double peak_mb = MemoryTracker::Process().peak() / 1e6;
  Ladder ladder;
  const double* rates = config.smoke ? kSmokeLadderQps : kLadderQps;
  if (config.traced()) {
    if (const Status st = clients[0]->Set("num_threads", "0"); !st.ok()) {
      Fail(&out, "SET num_threads = 0 failed: " + st.ToString());
    }
    RunLadder(clients, mix, rates,
              config.smoke ? 0.25 : config.seconds / kSteps, config.seed,
              &ladder);
  }
  for (auto& client : clients) client->Close();
  server.Shutdown();

  Outcome all = unloaded;
  for (const Outcome& o : ladder.outcome) all.Absorb(o);
  out.attempted += all.attempted;
  out.failed += all.failed;
  out.notes.insert(out.notes.end(), all.notes.begin(), all.notes.end());

  // Unloaded latency and execution cost, by template.
  std::vector<std::vector<double>> latency_by_tmpl(kTemplates);
  std::vector<std::vector<double>> cpr_by_tmpl(kTemplates);
  std::vector<double> unloaded_ms, overhead_us;
  for (const Sample& s : unloaded.samples) {
    if (!s.ok) continue;
    const size_t tmpl = s.instance % kTemplates;
    latency_by_tmpl[tmpl].push_back(s.latency_ms);
    cpr_by_tmpl[tmpl].push_back(s.exec_us * 1e-6 * TscHz() / rows);
    unloaded_ms.push_back(s.latency_ms);
    overhead_us.push_back(s.rtt_ms * 1e3 - s.exec_us - s.queue_us);
  }
  const Summary unloaded_latency = Summarize(unloaded_ms);
  out.notes.push_back("unloaded: " + DescribeLatency(unloaded_latency));
  MetricValues& m = out.metrics;

  if (!config.traced()) {
    m["setup_s"] = setup.setup_s;
    m["latency_ms"] = MeanOfMinima(latency_by_tmpl);
    m["clocks_per_row"] = MeanOfMinima(cpr_by_tmpl);
    m["bytes_per_row"] = static_cast<double>(setup.file_bytes) / rows;
    m["peak_mem_mb"] = peak_mb;
    return out;
  }

  const StepStats* stats = ladder.stats;
  for (size_t step = 0; step < kSteps; ++step) {
    char note[200];
    std::snprintf(note, sizeof(note),
                  "%-4s offered %6.0f qps achieved %6.1f | p50 %7.3f ms "
                  "p%g %7.3f ms (n=%zu) | lag p99 %.3f ms%s",
                  kStepNames[step], rates[step], stats[step].achieved_qps,
                  stats[step].latency.p50, stats[step].latency.tail_percentile,
                  stats[step].latency.tail, stats[step].latency.n,
                  stats[step].lag_p99_ms,
                  stats[step].backlog_grew ? " | backlog grew" : "");
    out.notes.push_back(note);
  }
  AddLatencyDistribution(unloaded_latency, &m);
  // Server-side splits of the loaded steps (low, mid, high).
  std::vector<double> queue_us, exec_us;
  double lag_p99 = 0;
  for (size_t step = 0; step < 3; ++step) {
    lag_p99 = std::max(lag_p99, stats[step].lag_p99_ms);
    for (const Sample& s : ladder.outcome[step].samples) {
      if (!s.ok) continue;
      queue_us.push_back(s.queue_us);
      exec_us.push_back(s.exec_us);
    }
  }
  m["exec.queue_wait_us.p50"] = Percentile(queue_us, 50);
  m["exec.queue_wait_us.p99"] = Percentile(queue_us, 99);
  m["exec.exec_us.p50"] = Percentile(exec_us, 50);
  m["exec.exec_us.p99"] = Percentile(exec_us, 99);
  m["server.overhead_us.p50"] = Percentile(overhead_us, 50);
  m["server.rejected"] = all.rejected;
  m["server.unavailable"] = all.unavailable;
  m["server.errors"] = all.errors;
  m["server.loadgen_lag_ms.p99"] = lag_p99;
  m["server.max_rate_qps"] = MaxRateWithinSlo(rates, stats);
  for (size_t step = 0; step < kSteps; ++step) {
    const std::string name = kStepNames[step];
    m["server.achieved_qps." + name] = stats[step].achieved_qps;
    m["server.lat_p50_ms." + name] = stats[step].latency.p50;
    m["server.lat_tail_ms." + name] = stats[step].latency.tail;
  }

  // Parse cost per template, and the in-process split of the mix queries,
  // replayed morsel by morsel as the pool runs them.
  std::vector<double> parse_us;
  for (size_t t = 0; t < kTemplates; ++t) {
    parse_us.push_back(MedianParseUs(mix[t].sql, table, 101));
  }
  m["sql.parse_us"] = Summarize(parse_us).p50;
  std::vector<QuerySpec> specs;
  std::vector<QueryResult> oracles;
  for (const MixQuery& q : mix) {
    specs.push_back(q.spec);
    oracles.push_back(q.oracle);
  }
  ProfileLayers(table, specs, oracles, kDefaultMorselRows, 2, &out);
  AddStorageLayerMetrics(setup, rows, &m);
  return out;
}

}  // namespace bipie::e2e
