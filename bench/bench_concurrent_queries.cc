// Concurrent-query throughput on the shared morsel pool.
//
// N client threads each run a closed loop of TPC-H Q1- and Q6-shaped scans
// against one shared lineitem table. Every query runs with
// ScanOptions::num_threads = 0: it submits morsels to the process-wide
// work-stealing scheduler (src/exec), so concurrent queries multiplex onto
// one hardware-sized worker set. Reported per clients cell (1, 2, 4, ... up
// to the maximum): aggregate queries/sec and p50/p99 per-query wall latency,
// once as they are and once with a per-query memory limit.
//
// Environment knobs (plus the usual BIPIE_BENCH_ROWS / BIPIE_BENCH_REPEATS):
//   BIPIE_BENCH_CLIENTS  max client count, an integer in [1, 64], default 8
//
// Sustained-load server mode (--duration-sec N): instead of the closed-loop
// cells above, starts the real query service (src/server) on a loopback
// ephemeral port with a small admission slot count, and drives it open-loop
// through the client library: two priority bands (high / low), each with a
// fixed arrival schedule that does not wait for completions. Latency is
// measured from the *scheduled* arrival, so a backlogged server is charged
// for the queue it built (no coordinated omission). Reported per band: QPS,
// p50/p99 latency, server-side admission queue wait, rejections; plus the
// process-tracker high-water mark. Under saturation the high band's p99
// must undercut the low band's — that is the whole point of the
// priority-aware admission queue.
//
//   bench_concurrent_queries --duration-sec 10 [--arrival-qps R]
//       [--clients-per-band N] [--max-concurrent K] [--queue-limit Q]
//       [--aging-ms MS] [--chaos] [--chaos-seed S] [--fault-prob P]
//
// N is in [1, 64], K in [1, 1024] and Q in [0, 65536]; any other value exits
// 2 before the run starts.
//
// --arrival-qps 0 (default) auto-calibrates: it measures one uncontended
// query's wire latency and targets ~2x the slot capacity, i.e. guaranteed
// saturation without unbounded backlog.
//
// Chaos mode (--chaos, with --duration-sec): the same sustained two-band
// load, but with every socket and allocation failpoint armed at seeded
// probabilities (server short/torn reads, connection resets, send failures,
// accept faults, delayed poll wakeups; client connect/recv/send faults;
// allocation failures) while clients run with timeouts + retry/backoff.
// Individual query errors are expected and tolerated; what must hold are
// the failure invariants (DESIGN.md §15):
//   * no crash, no hang: every request ends in a terminal reply or a clean
//     disconnect within its timeout;
//   * the server stays live: a clean client can Ping it after the storm;
//   * nothing leaks: admission queues drain to zero, the process tracker
//     returns to its pre-storm baseline after Shutdown, and the process fd
//     count is back to where it started.
// Exit code is 0 only if all invariants hold. Requires a build with
// BIPIE_ENABLE_FAILPOINTS (debug/asan/tsan presets); refuses to run otherwise.
#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/failpoint.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "exec/query_context.h"
#include "exec/query_settings.h"
#include "exec/scheduler.h"
#include "server/client.h"
#include "server/server.h"
#include "tpch/q1.h"
#include "tpch/q6.h"

using namespace bipie;         // NOLINT
using namespace bipie::bench;  // NOLINT

namespace {

struct CellResult {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  // Process-root tracker high-water mark across the cell, and how many
  // queries the per-query limit (if any) turned away structurally.
  size_t peak_tracked_bytes = 0;
  size_t resource_exhausted = 0;
};

double PercentileMs(std::vector<double>& latencies_ms, double p) {
  if (latencies_ms.empty()) return 0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(latencies_ms.size() - 1) + 0.5);
  return latencies_ms[idx];
}

// Runs `clients` closed-loop client threads, each issuing `iters` pooled
// queries alternating Q1 and Q6, and gathers per-query latencies. A
// non-zero `memory_limit` gives every query its own governed QueryContext;
// queries the limit turns away (kResourceExhausted) are counted, not timed.
CellResult RunCell(const Table& lineitem, size_t clients, int iters,
                   uint64_t memory_limit = 0) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<size_t> exhausted(clients, 0);
  MemoryTracker::Process().ResetPeak();
  const auto bench_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      latencies[c].reserve(iters);
      for (int i = 0; i < iters; ++i) {
        QueryContext context;
        ScanOptions options;
        options.num_threads = 0;
        if (memory_limit > 0) {
          BIPIE_DCHECK(context.settings()
                           .SetUInt64("memory_limit_bytes", memory_limit)
                           .ok());
          context.ApplySettings();
          options.context = &context;
        }
        const auto start = std::chrono::steady_clock::now();
        auto r = (c + i) % 2 == 0 ? RunQ1(lineitem, options)
                                  : RunQ6(lineitem, options);
        const auto stop = std::chrono::steady_clock::now();
        if (!r.ok() &&
            r.status().code() == StatusCode::kResourceExhausted) {
          ++exhausted[c];
          continue;
        }
        BIPIE_DCHECK(r.ok());
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(stop - start).count());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double total_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  CellResult result;
  result.qps =
      total_secs > 0 ? static_cast<double>(all.size()) / total_secs : 0;
  result.p50_ms = PercentileMs(all, 0.50);
  result.p99_ms = PercentileMs(all, 0.99);
  result.peak_tracked_bytes = MemoryTracker::Process().peak();
  for (size_t n : exhausted) result.resource_exhausted += n;
  return result;
}

// --- sustained-load server mode ---------------------------------------------

// Q1- and Q6-shaped SQL against the generated lineitem schema (decimals are
// fixed-point: quantity is units*100, discount is hundredths).
constexpr const char* kQ1Sql =
    "SELECT l_returnflag, l_linestatus, count(*), sum(l_quantity), "
    "sum(l_extendedprice) FROM lineitem WHERE l_shipdate <= 2436 "
    "GROUP BY l_returnflag, l_linestatus";
constexpr const char* kQ6Sql =
    "SELECT sum(l_extendedprice * l_discount) FROM lineitem "
    "WHERE l_shipdate BETWEEN 1096 AND 1460 AND l_discount BETWEEN 5 AND 7 "
    "AND l_quantity < 2400";

struct LoadFlags {
  double duration_sec = 10;
  double arrival_qps = 0;  // total across both bands; 0 = auto-calibrate
  size_t clients_per_band = 4;
  size_t max_concurrent = 2;  // admission slots; small so the queue engages
  size_t queue_limit = 64;
  uint64_t aging_ms = 500;
  bool chaos = false;        // arm failpoints, assert failure invariants
  uint64_t chaos_seed = 42;  // seeds every failpoint's coin flips
  double fault_prob = 0;     // > 0 overrides every class's probability
};

struct BandStats {
  std::vector<double> latency_ms;     // completion minus *scheduled* arrival
  std::vector<double> queue_wait_ms;  // server-side time in admission queue
  size_t completed = 0;
  size_t rejected = 0;     // admission queue full (kResourceExhausted)
  size_t unavailable = 0;  // shed / transport failures after retries
  size_t errors = 0;
  // The band's measured traffic window, which QPS divides by: a saturated
  // server finishes its backlog after the nominal duration.
  std::chrono::steady_clock::time_point first_send =
      std::chrono::steady_clock::time_point::max();
  std::chrono::steady_clock::time_point last_completion =
      std::chrono::steady_clock::time_point::min();
};

// Live fds of this process (/proc/self/fd entries, excluding the iterating
// dirfd itself). The chaos run brackets the server's lifetime with this to
// prove no socket or pipe leaks.
size_t CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count > 0 ? count - 1 : 0;  // minus the opendir fd
}

// Diagnostic for a failed fd invariant: what each open descriptor points
// at (socket inode, pipe, file path), so a CI log identifies the leak.
void DumpOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    char link[64];
    std::snprintf(link, sizeof(link), "/proc/self/fd/%s", entry->d_name);
    char target[256];
    ssize_t n = ::readlink(link, target, sizeof(target) - 1);
    target[n > 0 ? n : 0] = '\0';
    std::fprintf(stderr, "  fd %s -> %s\n", entry->d_name, target);
  }
  ::closedir(dir);
}

// One open-loop client: issues queries on a fixed schedule (offset + n *
// interval from t0), alternating Q1 and Q6 shapes. One query is in flight
// per connection, so a worker that falls behind schedule sends immediately
// on completion — and the latency, measured from the scheduled arrival,
// absorbs the slip. clients_per_band workers approximate a true open loop.
BandStats RunOpenLoopWorker(uint16_t port, const std::string& priority,
                            double worker_qps, double offset_sec,
                            std::chrono::steady_clock::time_point t0,
                            double duration_sec,
                            const server::ClientOptions& client_options) {
  BandStats stats;
  server::Client client(client_options);
  // Under chaos the first connect can be the one the fault injector kills:
  // keep trying briefly rather than silently running a worker-less band.
  Status setup;
  for (int attempt = 0; attempt < 50; ++attempt) {
    setup = client.Connect("127.0.0.1", port);
    if (setup.ok()) setup = client.Set("priority", priority);
    if (setup.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!setup.ok()) {
    ++stats.errors;
    return stats;
  }
  const double interval_sec = 1.0 / worker_qps;
  for (size_t n = 0;; ++n) {
    const double at = offset_sec + static_cast<double>(n) * interval_sec;
    if (at >= duration_sec) break;
    const auto scheduled =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(at));
    std::this_thread::sleep_until(scheduled);  // no-op when already late
    QueryResult result;
    server::QueryStatsWire wire_stats;
    if (n == 0) stats.first_send = std::chrono::steady_clock::now();
    const Status status =
        client.Query(n % 2 == 0 ? kQ1Sql : kQ6Sql, &result, &wire_stats);
    const auto done = std::chrono::steady_clock::now();
    if (status.ok()) {
      ++stats.completed;
      stats.last_completion = done;
      stats.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(done - scheduled).count());
      stats.queue_wait_ms.push_back(
          static_cast<double>(wire_stats.queue_wait_ns) / 1e6);
    } else if (status.code() == StatusCode::kResourceExhausted) {
      ++stats.rejected;
    } else if (status.code() == StatusCode::kUnavailable) {
      // Shed rejection or a transport failure the retry policy gave up on:
      // the structured "not now" answer, distinct from a broken query.
      ++stats.unavailable;
    } else {
      ++stats.errors;
    }
  }
  return stats;
}

void MergeBand(BandStats* into, BandStats&& from) {
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  into->queue_wait_ms.insert(into->queue_wait_ms.end(),
                             from.queue_wait_ms.begin(),
                             from.queue_wait_ms.end());
  into->completed += from.completed;
  into->rejected += from.rejected;
  into->unavailable += from.unavailable;
  into->errors += from.errors;
  into->first_send = std::min(into->first_send, from.first_send);
  into->last_completion =
      std::max(into->last_completion, from.last_completion);
}

// Arms every socket and allocation failpoint at a seeded probability. The
// torn-IO classes (short reads/writes) run hotter than the hard-failure
// classes (resets, send/recv errors) — tearing must be survivable at high
// rates, hard failures cost a reconnect each. A fault_prob > 0 flattens
// everything to that rate.
void ArmChaosFailpoints(uint64_t seed, double fault_prob) {
  struct FaultClass {
    const char* name;
    double probability;
  };
  const FaultClass classes[] = {
      {"server/read_short", 0.05},   {"server/send_partial", 0.05},
      {"server/read_reset", 0.01},   {"server/send_fail", 0.01},
      {"server/accept_fail", 0.02},  {"server/poll_delay", 0.02},
      {"client/read_short", 0.05},   {"client/connect_fail", 0.02},
      {"client/recv_fail", 0.01},    {"client/send_fail", 0.01},
      {"aligned_buffer/alloc_fail", 0.01},
      {"scan/morsel_scratch_alloc", 0.01},
  };
  uint64_t salt = 0;
  for (const FaultClass& fc : classes) {
    const double p = fault_prob > 0 ? fault_prob : fc.probability;
    Failpoints::FailWithProbability(fc.name, p, seed + salt++);
    std::printf("  chaos: %-32s p=%.3f\n", fc.name, p);
  }
}

int RunSustainedLoad(const LoadFlags& flags) {
#if !defined(BIPIE_ENABLE_FAILPOINTS)
  if (flags.chaos) {
    std::fprintf(stderr,
                 "--chaos needs a build with BIPIE_ENABLE_FAILPOINTS "
                 "(debug/asan/tsan presets); this binary has the sites compiled "
                 "out\n");
    return 2;
  }
#endif
  PrintBenchHeader(
      "Concurrent queries: shared morsel pool",
      flags.chaos
          ? "beyond the paper; sustained load with socket/alloc fault "
            "injection against the query service (src/server)"
          : "beyond the paper; open-loop load against the query service "
            "(src/server) with priority-aware admission");

  LineitemOptions options;
  options.num_rows = BenchRows();
  options.segment_rows = std::max<size_t>(
      kBatchRows, std::min<size_t>(kDefaultSegmentRows, options.num_rows / 8));
  std::printf("generating lineitem (%zu rows, %zu-row segments)...\n",
              options.num_rows, options.segment_rows);
  Table lineitem = MakeLineitemTable(options);

  // Failure-invariant brackets: fds before the server exists, tracker
  // baseline after warmup (below). Both must be restored at the end.
  const size_t fds_before = CountOpenFds();

  server::ServerOptions server_options;
  server_options.port = 0;  // ephemeral loopback
  server_options.admission.max_concurrent_queries = flags.max_concurrent;
  server_options.admission.max_queued_queries = flags.queue_limit;
  server_options.admission.aging_ms = flags.aging_ms;
  if (flags.chaos) {
    // Tight enough that the storm actually exercises the deadlines and the
    // shed policy, loose enough that healthy requests never trip them.
    server_options.write_stall_timeout_ms = 5000;
    server_options.frame_read_timeout_ms = 5000;
    server_options.shed_queue_wait_ms = 2000;
  }
  server::Server server(server_options);
  server.AddTable("lineitem", &lineitem);
  {
    const Status status = server.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  // Warm the pool and the table, and calibrate: the median of a few
  // uncontended wire round-trips bounds the per-slot service rate. Several
  // rounds of both query shapes also pre-size every pool worker's
  // thread-local scratch, so the tracker baseline taken after this is what
  // the chaos invariant compares against.
  double probe_ms = 0;
  {
    server::Client probe;
    BIPIE_DCHECK(probe.Connect("127.0.0.1", server.port()).ok());
    std::vector<double> samples;
    for (int i = 0; i < 8; ++i) {
      QueryResult result;
      const auto start = std::chrono::steady_clock::now();
      BIPIE_DCHECK(probe.Query(i % 2 == 0 ? kQ1Sql : kQ6Sql, &result).ok());
      samples.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
    std::sort(samples.begin(), samples.end());
    probe_ms = std::max(samples[samples.size() / 2], 0.01);
  }
  const size_t tracked_baseline = MemoryTracker::Process().used();
  const double capacity_qps =
      static_cast<double>(flags.max_concurrent) * 1000.0 / probe_ms;
  const double arrival_qps = flags.arrival_qps > 0
                                 ? flags.arrival_qps
                                 : std::max(2.0, 2.0 * capacity_qps);

  std::printf(
      "server on 127.0.0.1:%u | slots: %zu | queue/band: %zu | aging: %zu ms\n"
      "probe latency: %.2f ms -> capacity ~%.1f qps | arrival: %.1f qps "
      "(2 bands) | duration: %.0f s | clients/band: %zu\n\n",
      server.port(), flags.max_concurrent, flags.queue_limit,
      static_cast<size_t>(flags.aging_ms), probe_ms, capacity_qps, arrival_qps,
      flags.duration_sec, flags.clients_per_band);

  server::ClientOptions client_options;
  if (flags.chaos) {
    std::printf("chaos: seed %zu, arming failpoints:\n",
                static_cast<size_t>(flags.chaos_seed));
    ArmChaosFailpoints(flags.chaos_seed, flags.fault_prob);
    std::printf("\n");
    // Bounded everything + retries: a fault-ridden run must end on its
    // own, never hang a worker.
    client_options.connect_timeout_ms = 2000;
    client_options.send_timeout_ms = 10000;
    client_options.recv_timeout_ms = 10000;
    client_options.max_retries = 4;
    client_options.backoff_initial_ms = 20;
    client_options.backoff_max_ms = 500;
    client_options.retry_budget = 100000;
  }

  MemoryTracker::Process().ResetPeak();
  const double band_qps = arrival_qps / 2.0;
  const double worker_qps =
      band_qps / static_cast<double>(flags.clients_per_band);
  const auto t0 = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(50);  // workers start aligned
  const std::string bands[2] = {"high", "low"};
  std::vector<BandStats> per_worker(2 * flags.clients_per_band);
  std::vector<std::thread> workers;
  workers.reserve(per_worker.size());
  for (size_t b = 0; b < 2; ++b) {
    for (size_t k = 0; k < flags.clients_per_band; ++k) {
      const size_t slot = b * flags.clients_per_band + k;
      // Stagger workers across one interval so band arrivals are uniform.
      const double offset =
          static_cast<double>(k) /
          (worker_qps * static_cast<double>(flags.clients_per_band));
      workers.emplace_back([&, b, slot, offset] {
        server::ClientOptions worker_options = client_options;
        worker_options.jitter_seed = flags.chaos_seed + slot;
        per_worker[slot] = RunOpenLoopWorker(server.port(), bands[b],
                                             worker_qps, offset, t0,
                                             flags.duration_sec,
                                             worker_options);
      });
    }
  }
  for (std::thread& w : workers) w.join();

  // Chaos invariants, part 1 — while the server is still up:
  //   the storm is over (failpoints off), so a clean client must connect
  //   and get a Pong, and the admission queues must drain to zero.
  size_t invariant_failures = 0;
  if (flags.chaos) {
    Failpoints::DeactivateAll();
    {
      server::Client alive;
      Status st = alive.Connect("127.0.0.1", server.port());
      if (st.ok()) st = alive.Ping(0xb1b1e);
      if (!st.ok()) {
        std::fprintf(stderr, "INVARIANT: server not live after chaos: %s\n",
                     st.ToString().c_str());
        ++invariant_failures;
      }
    }
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((server.admission().running() > 0 ||
            server.admission().queued() > 0) &&
           std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (server.admission().running() > 0 || server.admission().queued() > 0) {
      std::fprintf(stderr,
                   "INVARIANT: admission not drained after chaos: "
                   "%zu running, %zu queued\n",
                   server.admission().running(), server.admission().queued());
      ++invariant_failures;
    }
  }

  server.Shutdown();
  const size_t peak_tracked_bytes = MemoryTracker::Process().peak();

  // Chaos invariants, part 2 — after Shutdown: no leaked memory charges
  // (process tracker back to the post-warmup baseline) and no leaked fds.
  if (flags.chaos) {
    const size_t tracked_after = MemoryTracker::Process().used();
    if (tracked_after > tracked_baseline) {
      std::fprintf(stderr,
                   "INVARIANT: tracked memory leaked through chaos: "
                   "baseline %zu, after shutdown %zu\n",
                   tracked_baseline, tracked_after);
      ++invariant_failures;
    }
    const size_t fds_after = CountOpenFds();
    if (fds_after != fds_before) {
      std::fprintf(stderr,
                   "INVARIANT: fd count changed across the chaos run: "
                   "%zu before, %zu after\n",
                   fds_before, fds_after);
      DumpOpenFds();
      ++invariant_failures;
    }
  }

  BenchJsonReport& report = BenchJsonReport::Get();
  report.SetConfig("server_duration_sec", std::to_string(flags.duration_sec));
  report.SetConfig("server_arrival_qps", std::to_string(arrival_qps));
  report.SetConfig("server_slots", std::to_string(flags.max_concurrent));
  report.SetConfig("server_clients_per_band",
                   std::to_string(flags.clients_per_band));

  std::printf("%8s %10s %10s %10s %12s %10s %8s %8s %8s\n", "band", "QPS",
              "p50 [ms]", "p99 [ms]", "qwait p99", "peak [B]", "rejected",
              "unavail", "errors");
  double p99[2] = {0, 0};
  size_t total_errors = 0;
  size_t total_completed = 0;
  for (size_t b = 0; b < 2; ++b) {
    BandStats band;
    for (size_t k = 0; k < flags.clients_per_band; ++k) {
      MergeBand(&band, std::move(per_worker[b * flags.clients_per_band + k]));
    }
    double qps = 0.0;
    if (band.completed > 0) {
      const std::chrono::duration<double> window =
          band.last_completion - band.first_send;
      qps = static_cast<double>(band.completed) / window.count();
    }
    const double p50_ms = PercentileMs(band.latency_ms, 0.50);
    const double p99_ms = PercentileMs(band.latency_ms, 0.99);
    const double qwait_p99_ms = PercentileMs(band.queue_wait_ms, 0.99);
    p99[b] = p99_ms;
    total_errors += band.errors;
    total_completed += band.completed;
    std::printf("%8s %10.1f %10.2f %10.2f %12.2f %10zu %8zu %8zu %8zu\n",
                bands[b].c_str(), qps, p50_ms, p99_ms, qwait_p99_ms,
                peak_tracked_bytes, band.rejected, band.unavailable,
                band.errors);
    // New labels, absent from older baselines: the perf-smoke A/B gate's
    // label intersection skips the server cells automatically.
    report.Add("server_" + bands[b],
               {{"qps", qps},
                {"p50_ms", p50_ms},
                {"p99_ms", p99_ms},
                {"queue_wait_p99_ms", qwait_p99_ms},
                {"peak_tracked_bytes",
                 static_cast<double>(peak_tracked_bytes)},
                {"rejected", static_cast<double>(band.rejected)},
                {"unavailable", static_cast<double>(band.unavailable)},
                {"errors", static_cast<double>(band.errors)}});
  }

  std::printf("\nshape check: high-band p99 %.2f ms vs low-band p99 %.2f ms "
              "(%s under saturation)\n",
              p99[0], p99[1],
              p99[0] < p99[1] ? "high undercuts low, as admission promises"
                              : "NO priority separation — investigate");

  if (flags.chaos) {
    // Under chaos, individual failures are the point; the run passes on
    // its invariants plus basic liveness (some queries did complete —
    // every request got a terminal answer by construction, because every
    // worker returned).
    if (total_completed == 0) {
      std::fprintf(stderr, "chaos run completed zero queries\n");
      ++invariant_failures;
    }
    std::printf("\nchaos verdict: %zu completed, %zu errors tolerated, "
                "%zu invariant failures -> %s\n",
                total_completed, total_errors, invariant_failures,
                invariant_failures == 0 ? "PASS" : "FAIL");
    return invariant_failures == 0 ? 0 : 1;
  }
  if (total_errors > 0) {
    std::fprintf(stderr, "sustained-load run saw %zu query errors\n",
                 total_errors);
    return 1;
  }
  return 0;
}

// --- closed-loop in-process cells (the perf-smoke A/B path) -----------------

int RunClosedLoopCells() {
  PrintBenchHeader(
      "Concurrent queries: shared morsel pool",
      "beyond the paper; morsel-driven execution (Leis et al.) applied to "
      "the BIPie scan");

  const size_t max_clients = PositiveEnvKnob("BIPIE_BENCH_CLIENTS", 8, 64);
  const int iters = std::max(2, BenchRepeats());

  LineitemOptions options;
  options.num_rows = BenchRows();
  // Several segments even at smoke sizes, so the pool has morsels to steal.
  options.segment_rows = std::max<size_t>(
      kBatchRows, std::min<size_t>(kDefaultSegmentRows, options.num_rows / 8));
  std::printf("generating lineitem (%zu rows, %zu-row segments)...\n",
              options.num_rows, options.segment_rows);
  Table lineitem = MakeLineitemTable(options);

  // Warm the pool (lazy start) and fault in the table before timing.
  { auto warm = RunQ1(lineitem, {.num_threads = 0}); BIPIE_DCHECK(warm.ok()); }

  std::printf("pool workers: %zu | iters/client: %d\n\n",
              Scheduler::Global().num_workers(), iters);
  std::printf("%8s %12s %12s %12s\n", "clients", "QPS", "p50 [ms]",
              "p99 [ms]");

  BenchJsonReport& report = BenchJsonReport::Get();
  report.SetConfig("pool_workers",
                   std::to_string(Scheduler::Global().num_workers()));
  report.SetConfig("iters_per_client", std::to_string(iters));

  for (size_t clients = 1; clients <= max_clients; clients *= 2) {
    const CellResult cell = RunCell(lineitem, clients, iters);
    std::printf("%8zu %12.1f %12.2f %12.2f\n", clients, cell.qps,
                cell.p50_ms, cell.p99_ms);
    report.Add("pool_clients_" + std::to_string(clients),
               {{"qps", cell.qps},
                {"p50_ms", cell.p50_ms},
                {"p99_ms", cell.p99_ms},
                {"clients", static_cast<double>(clients)},
                {"peak_tracked_bytes",
                 static_cast<double>(cell.peak_tracked_bytes)}});
  }

  // Memory-governed cells: the same cells again, with every query holding a
  // per-query hard limit. At the default (generous) limit this measures the
  // tracker's overhead and high-water mark under concurrency; pointing
  // BIPIE_BENCH_MEMORY_LIMIT at a small value instead measures structured
  // rejection throughput. New labels — absent from older baselines — are
  // skipped by the A/B gate's label intersection.
  uint64_t memory_limit = uint64_t{256} << 20;
  if (const char* env = std::getenv("BIPIE_BENCH_MEMORY_LIMIT")) {
    uint64_t parsed = 0;
    if (ParseUInt64Strict(env, &parsed) && parsed > 0) memory_limit = parsed;
  }
  report.SetConfig("memory_limit_bytes", std::to_string(memory_limit));
  std::printf("\nper-query memory limit %zu bytes:\n",
              static_cast<size_t>(memory_limit));
  std::printf("%8s %12s %12s %12s %12s %10s\n", "clients", "QPS",
              "p50 [ms]", "p99 [ms]", "peak [B]", "rejected");
  for (size_t clients = 1; clients <= max_clients; clients *= 2) {
    const CellResult cell = RunCell(lineitem, clients, iters, memory_limit);
    std::printf("%8zu %12.1f %12.2f %12.2f %12zu %10zu\n", clients,
                cell.qps, cell.p50_ms, cell.p99_ms, cell.peak_tracked_bytes,
                cell.resource_exhausted);
    report.Add("pool_limited_clients_" + std::to_string(clients),
               {{"qps", cell.qps},
                {"p50_ms", cell.p50_ms},
                {"p99_ms", cell.p99_ms},
                {"clients", static_cast<double>(clients)},
                {"peak_tracked_bytes",
                 static_cast<double>(cell.peak_tracked_bytes)},
                {"resource_exhausted",
                 static_cast<double>(cell.resource_exhausted)}});
  }
  return 0;
}

// Strict, bounded parse of a count flag: the whole value must be decimal
// digits within [min, max]. Anything else ("-1", "8x", out of range) exits 2
// before the run starts.
size_t CountFlag(const std::string& flag, const char* text, uint64_t min,
                 uint64_t max) {
  uint64_t value = 0;
  if (!ParseUInt64Strict(text, &value) || value < min || value > max) {
    std::fprintf(stderr, "%s '%s': expected an integer in [%llu, %llu]\n",
                 flag.c_str(), text, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return static_cast<size_t>(value);
}

}  // namespace

int main(int argc, char** argv) {
  // Any flag selects the sustained-load server mode; no flags runs the
  // closed-loop in-process cells (the perf-smoke A/B path, whose labels the
  // baseline comparison keys on).
  if (argc > 1) {
    LoadFlags flags;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s needs a value\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--duration-sec") {
        flags.duration_sec = std::strtod(next(), nullptr);
      } else if (arg == "--arrival-qps") {
        flags.arrival_qps = std::strtod(next(), nullptr);
      } else if (arg == "--clients-per-band") {
        flags.clients_per_band = CountFlag(arg, next(), 1, 64);
      } else if (arg == "--max-concurrent") {
        flags.max_concurrent = CountFlag(arg, next(), 1, 1024);
      } else if (arg == "--queue-limit") {
        flags.queue_limit = CountFlag(arg, next(), 0, 65536);
      } else if (arg == "--aging-ms") {
        flags.aging_ms = std::strtoull(next(), nullptr, 10);
      } else if (arg == "--chaos") {
        flags.chaos = true;
      } else if (arg == "--chaos-seed") {
        flags.chaos_seed = std::strtoull(next(), nullptr, 10);
      } else if (arg == "--fault-prob") {
        flags.fault_prob = std::strtod(next(), nullptr);
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        return 2;
      }
    }
    if (flags.duration_sec <= 0) {
      std::fprintf(stderr, "--duration-sec must be positive\n");
      return 2;
    }
    return RunSustainedLoad(flags);
  }
  return RunClosedLoopCells();
}
