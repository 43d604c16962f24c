// The query service end to end (DESIGN.md §14): SQL over the framed
// protocol against a live loopback server. Covers session settings
// isolation, the in-flight-query rule, mid-query cancel frames, deadline
// expiry while queued, admission rejection over the wire, hostile framing
// (oversized / truncated / garbage), memory-limit errors that keep the
// connection, and session-tracker balance after queries drain.
#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/memory_tracker.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "storage/table.h"

namespace bipie {
namespace {

using server::Client;
using server::FrameType;
using server::QueryStatsWire;
using server::Server;
using server::ServerOptions;

Table MakeTestTable(size_t rows = 20000) {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"v", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({static_cast<int64_t>(i % 4), static_cast<int64_t>(i % 7)});
  }
  app.Flush();
  return table;
}

// Blocks queries between admission grant and execution, so tests can land
// frames (Cancel) or hold the admission slot at a deterministic point.
class Gate {
 public:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void WaitEntered(int count = 1) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, count] { return entered_ >= count; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool released_ = false;
  int entered_ = 0;
};

TEST(ServerTest, QueryRoundTrip) {
  Table table = MakeTestTable();
  Server server(ServerOptions{});
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  QueryResult result;
  QueryStatsWire stats;
  Status st = client.Query(
      "SELECT g, count(*), sum(v) FROM t WHERE v >= 1 GROUP BY g", &result,
      &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(result.rows.size(), 4u);
  ASSERT_EQ(result.group_column_names.size(), 1u);
  EXPECT_EQ(result.group_column_names[0], "g");
  uint64_t total = 0;
  for (const ResultRow& row : result.rows) total += row.count;
  EXPECT_EQ(total, 20000u - 20000u / 7u - 1u);  // rows with v == 0 filtered
  EXPECT_EQ(stats.rows_scanned, 20000u);
  EXPECT_GT(stats.exec_ns, 0u);
  // Uncontended: the admission grant is inline, so the measured queue wait
  // is dispatch overhead (microseconds), not real queueing.
  EXPECT_LT(stats.queue_wait_ns, uint64_t{50} * 1000 * 1000);
}

TEST(ServerTest, ExplainOverWire) {
  Table table = MakeTestTable();
  Server server(ServerOptions{});
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::string text;
  Status st = client.Explain("EXPLAIN SELECT count(*) FROM t", &text);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(text.find("BIPie plan"), std::string::npos);
}

TEST(ServerTest, ErrorsKeepTheSessionAlive) {
  Table table = MakeTestTable();
  Server server(ServerOptions{});
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Parse error (positioned), unknown table, unknown or out-of-range
  // setting: all are structured Error frames, none of them drops the
  // connection.
  QueryResult ignored;
  Status st = client.Query("SELECT FROM t", &ignored);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("parse error at byte"), std::string::npos);

  st = client.Query("SELECT count(*) FROM nope", &ignored);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unknown table"), std::string::npos);

  st = client.Set("no_such_setting", "1");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  // Only 0 (shared pool) and 1 (inline) execution models exist, and the
  // table-load settings nothing read are gone.
  st = client.Set("num_threads", "4");
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  st = client.Set("io_strict", "on");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("unknown setting"), std::string::npos);

  QueryResult result;
  st = client.Query("SELECT count(*) FROM t", &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].count, 20000u);
}

TEST(ServerTest, SessionSettingsAreIsolated) {
  Table table = MakeTestTable();
  Server server(ServerOptions{});
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client starved, healthy;
  ASSERT_TRUE(starved.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server.port()).ok());

  // Session A sets an impossible memory limit; session B must not see it.
  ASSERT_TRUE(starved.Set("memory_limit_bytes", "1").ok());

  QueryResult result;
  Status st = starved.Query("SELECT g, count(*), sum(v) FROM t GROUP BY g",
                            &result);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);

  st = healthy.Query("SELECT g, count(*), sum(v) FROM t GROUP BY g", &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.rows.size(), 4u);

  // The memory-limit failure was a clean Error frame: session A's
  // connection survives and works again once the delta is lifted.
  ASSERT_TRUE(starved.Set("memory_limit_bytes", "0").ok());
  result = QueryResult{};
  st = starved.Query("SELECT g, count(*), sum(v) FROM t GROUP BY g", &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.rows.size(), 4u);
}

TEST(ServerTest, MidQueryCancelFrame) {
  Table table = MakeTestTable();
  Gate gate;
  gate.Arm();
  std::atomic<QueryContext*> held_ctx{nullptr};
  ServerOptions options;
  options.before_execute_hook = [&](QueryContext* ctx) {
    held_ctx.store(ctx);
    gate.Enter();
  };
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.SendQuery("SELECT g, count(*) FROM t GROUP BY g").ok());
  gate.WaitEntered();
  // The query is held right before execution; the Cancel frame is
  // processed by the IO thread while the worker is parked. Wait for the
  // cancellation to latch before resuming, or the query could finish
  // before the frame crosses the loopback.
  ASSERT_TRUE(client.SendCancel().ok());
  while (!held_ctx.load()->is_cancelled()) std::this_thread::yield();
  gate.Release();

  QueryResult result;
  Status st = client.ReadQueryResponse(&result, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);

  // The session survives the cancellation.
  st = client.Query("SELECT count(*) FROM t", &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.rows[0].count, 20000u);
}

TEST(ServerTest, OnlyOneQueryInFlightPerConnection) {
  Table table = MakeTestTable();
  Gate gate;
  gate.Arm();
  ServerOptions options;
  options.before_execute_hook = [&gate](QueryContext*) { gate.Enter(); };
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.SendQuery("SELECT count(*) FROM t").ok());
  gate.WaitEntered();
  // Second query while the first is held: immediate rejection frame (the
  // first query's frames come later, so the rejection is read first).
  ASSERT_TRUE(client.SendQuery("SELECT count(*) FROM t").ok());
  Status st = client.ReadQueryResponse(nullptr, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("already in flight"), std::string::npos);

  gate.Release();
  QueryResult result;
  st = client.ReadQueryResponse(&result, nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.rows[0].count, 20000u);
}

TEST(ServerTest, DeadlineExpiryWhileQueued) {
  Table table = MakeTestTable();
  Gate gate;
  gate.Arm();
  ServerOptions options;
  options.admission.max_concurrent_queries = 1;
  options.admission.max_queued_queries = 4;
  options.before_execute_hook = [&gate](QueryContext*) { gate.Enter(); };
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client holder, queued;
  ASSERT_TRUE(holder.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(queued.Connect("127.0.0.1", server.port()).ok());

  // The holder occupies the only slot, parked at the gate.
  ASSERT_TRUE(holder.SendQuery("SELECT count(*) FROM t").ok());
  gate.WaitEntered();

  // The queued query's 50ms deadline expires in the admission queue; the
  // IO loop's Tick fails it with kCancelled without it ever running.
  ASSERT_TRUE(queued.Set("deadline_ms", "50").ok());
  Status st = queued.Query("SELECT count(*) FROM t", nullptr);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);

  gate.Release();
  QueryResult result;
  st = holder.ReadQueryResponse(&result, nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.rows[0].count, 20000u);
}

TEST(ServerTest, AdmissionRejectionOverWire) {
  Table table = MakeTestTable();
  Gate gate;
  gate.Arm();
  ServerOptions options;
  options.admission.max_concurrent_queries = 1;
  options.admission.max_queued_queries = 0;  // no queue: reject outright
  options.before_execute_hook = [&gate](QueryContext*) { gate.Enter(); };
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client holder, rejected;
  ASSERT_TRUE(holder.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(rejected.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(holder.SendQuery("SELECT count(*) FROM t").ok());
  gate.WaitEntered();

  Status st = rejected.Query("SELECT count(*) FROM t", nullptr);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("admission queue full"), std::string::npos);

  gate.Release();
  ASSERT_TRUE(holder.ReadQueryResponse(nullptr, nullptr).ok());
}

TEST(ServerTest, HostileFramesGetStructuredErrors) {
  Table table = MakeTestTable();
  Server server(ServerOptions{});
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  {
    // Oversized length prefix: error frame, then the connection drops.
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::vector<uint8_t> evil = {0xff, 0xff, 0xff, 0xff, /*type=*/1};
    ASSERT_TRUE(client.SendRaw(evil).ok());
    std::vector<uint8_t> payload;
    FrameType type;
    ASSERT_TRUE(client.ReadFrameInto(&payload, &type).ok());
    EXPECT_EQ(type, FrameType::kError);
    EXPECT_FALSE(client.ReadFrameInto(&payload, &type).ok());  // closed
  }
  {
    // Unknown frame type.
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::vector<uint8_t> evil = {0, 0, 0, 0, /*type=*/0xee};
    ASSERT_TRUE(client.SendRaw(evil).ok());
    std::vector<uint8_t> payload;
    FrameType type;
    ASSERT_TRUE(client.ReadFrameInto(&payload, &type).ok());
    EXPECT_EQ(type, FrameType::kError);
  }
  {
    // Garbage payload: a Query frame whose inner string length lies about
    // the remaining bytes.
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::vector<uint8_t> evil = {6, 0, 0, 0, /*type=*/1,
                                 /*strlen=100:*/ 100, 0, 0, 0, 'h', 'i'};
    ASSERT_TRUE(client.SendRaw(evil).ok());
    std::vector<uint8_t> payload;
    FrameType type;
    ASSERT_TRUE(client.ReadFrameInto(&payload, &type).ok());
    EXPECT_EQ(type, FrameType::kError);
  }
  {
    // Truncated frame followed by client disconnect: the server just
    // drops the half-read stream.
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.SendRaw({50, 0, 0, 0, 1, 'S', 'E'}).ok());
    client.Close();
  }

  // After all of the hostility the server still serves clean sessions.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  QueryResult result;
  Status st = client.Query("SELECT count(*) FROM t", &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.rows[0].count, 20000u);
}

TEST(ServerTest, SessionTrackerBalancesAfterQueries) {
  Table table = MakeTestTable();
  // The session tracker lives inside the Connection, which the IO thread
  // frees at teardown — so inspect it from the worker thread (where the
  // connection is pinned by the running query) and ship plain values out.
  std::atomic<int> hook_calls{0};
  std::atomic<bool> parent_is_session{false};
  std::atomic<uint64_t> session_used_at_second_query{~uint64_t{0}};
  ServerOptions options;
  options.before_execute_hook = [&](QueryContext* ctx) {
    // The query tracker's parent is the connection's session tracker.
    MemoryTracker* session = ctx->memory_tracker().parent();
    if (hook_calls.fetch_add(1) == 1) {
      // Second query on the same session: everything the first query
      // charged against the session chain must be back — the invariant
      // the graceful drain relies on.
      parent_is_session.store(session != nullptr &&
                              session != &MemoryTracker::Process());
      session_used_at_second_query.store(session->used());
    }
  };
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  QueryResult result;
  QueryStatsWire stats;
  Status st = client.Query("SELECT g, count(*), sum(v) FROM t GROUP BY g",
                           &result, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(stats.peak_memory_bytes, 0u);

  st = client.Query("SELECT count(*) FROM t", &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(hook_calls.load(), 2);
  EXPECT_TRUE(parent_is_session.load());
  EXPECT_EQ(session_used_at_second_query.load(), 0u);
}

TEST(ServerTest, GracefulShutdownFinishesRunningQueries) {
  Table table = MakeTestTable();
  Gate gate;
  gate.Arm();
  ServerOptions options;
  options.admission.max_concurrent_queries = 1;
  options.admission.max_queued_queries = 4;
  options.before_execute_hook = [&gate](QueryContext*) { gate.Enter(); };
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client running, waiting;
  ASSERT_TRUE(running.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(waiting.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(running.SendQuery("SELECT g, count(*) FROM t GROUP BY g").ok());
  gate.WaitEntered();
  ASSERT_TRUE(waiting.SendQuery("SELECT count(*) FROM t").ok());
  while (server.admission().queued() == 0) std::this_thread::yield();

  // Drain on another thread: it must cancel the queued query, wait for the
  // running one (parked at the gate) and only then return.
  std::thread drainer([&server] { server.Shutdown(); });
  // The queued query is failed promptly, before the drain completes.
  Status st = waiting.ReadQueryResponse(nullptr, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);

  gate.Release();
  QueryResult result;
  st = running.ReadQueryResponse(&result, nullptr);
  drainer.join();  // before any assert: a failure must not leak the thread
  ASSERT_TRUE(st.ok()) << st.ToString();  // finished and flushed, not cut off
  EXPECT_EQ(result.rows.size(), 4u);
}

// -------------------------------------------------------------------------
// Resilience (DESIGN.md §15): torn frames, timeouts, slow readers, write
// buffers, ping liveness, shed policy, drain rejection.
// -------------------------------------------------------------------------

// A table whose GROUP BY result is large (one group per row), for tests
// that need a reply far bigger than the kernel's socket buffers.
Table MakeWideResultTable(size_t rows) {
  Table table({{"u", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  for (size_t i = 0; i < rows; ++i) app.AppendRow({static_cast<int64_t>(i)});
  app.Flush();
  return table;
}

// Reads frames until the request terminates (Stats / Ok / Pong / Error) and
// returns the terminal frame type. Result frames in between are discarded.
FrameType ReadToTerminalFrame(Client* client) {
  for (int i = 0; i < 1000; ++i) {
    std::vector<uint8_t> payload;
    FrameType type = FrameType::kError;
    Status st = client->ReadFrameInto(&payload, &type);
    if (!st.ok()) {
      ADD_FAILURE() << "transport failure mid-reply: " << st.ToString();
      return FrameType::kError;
    }
    if (type != FrameType::kResultBatch) return type;
  }
  ADD_FAILURE() << "no terminal frame after 1000 result frames";
  return FrameType::kError;
}

TEST(ServerTest, TornFramesParseAtEveryBoundary) {
  // Every request frame, split at every interior byte boundary into two
  // writes with a pause in between so the server observes a partial frame,
  // must still parse and get its normal reply on the same connection.
  Table table = MakeTestTable(2000);
  Server server(ServerOptions{});
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  struct Case {
    std::vector<uint8_t> frame;
    FrameType expect;
  };
  const Case cases[] = {
      {server::EncodeQueryFrame("SELECT count(*) FROM t"), FrameType::kStats},
      {server::EncodeSetSettingFrame("priority", "normal"), FrameType::kOk},
      {server::EncodePingFrame(0x7e57), FrameType::kPong},
  };

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (const Case& c : cases) {
    for (size_t split = 1; split < c.frame.size(); ++split) {
      std::vector<uint8_t> head(c.frame.begin(), c.frame.begin() + split);
      std::vector<uint8_t> tail(c.frame.begin() + split, c.frame.end());
      ASSERT_TRUE(client.SendRaw(head).ok());
      // Give the IO thread a poll round to buffer the partial frame.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ASSERT_TRUE(client.SendRaw(tail).ok());
      EXPECT_EQ(ReadToTerminalFrame(&client), c.expect)
          << "frame type " << static_cast<int>(c.frame[4]) << " split at "
          << split;
    }
  }
}

TEST(ServerTest, MidFrameDisconnectsLeaveServerHealthy) {
  // A client that vanishes mid-frame — at every byte boundary — must not
  // wedge the server or leak its session. Fresh connections keep working.
  Table table = MakeTestTable(2000);
  Server server(ServerOptions{});
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  std::vector<uint8_t> frame =
      server::EncodeQueryFrame("SELECT count(*) FROM t");
  for (size_t cut = 1; cut < frame.size(); ++cut) {
    Client doomed;
    ASSERT_TRUE(doomed.Connect("127.0.0.1", server.port()).ok());
    std::vector<uint8_t> head(frame.begin(), frame.begin() + cut);
    ASSERT_TRUE(doomed.SendRaw(head).ok());
    doomed.Close();
  }

  Client survivor;
  ASSERT_TRUE(survivor.Connect("127.0.0.1", server.port()).ok());
  QueryResult result;
  Status st = survivor.Query("SELECT count(*) FROM t", &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].count, 2000u);
  // Server::Shutdown (via the dtor) walks every Connection dtor, which
  // DCHECKs session-tracker balance — a leaked session would abort here.
}

TEST(ServerTest, SlowReaderDoesNotBlockOtherConnections) {
  // Acceptance criterion: one connection that stops reading its (large)
  // result must not hold the worker — replies are buffered per connection
  // and drained by the IO thread, so other connections' queries stay fast
  // even with a single execution slot.
  Table table = MakeWideResultTable(150000);
  ServerOptions options;
  options.admission.max_concurrent_queries = 1;
  options.write_stall_timeout_ms = 60000;  // don't reap the stalled reader
  Server server(options);
  server.AddTable("big", &table);
  ASSERT_TRUE(server.Start().ok());

  Client stalled;
  ASSERT_TRUE(stalled.Connect("127.0.0.1", server.port()).ok());
  // ~150k result rows: far more than the kernel socket buffers hold, so
  // most of the reply lands in the server-side write buffer.
  ASSERT_TRUE(stalled.SendQuery("SELECT u, count(*) FROM big GROUP BY u").ok());
  // ...and never reads. Meanwhile, the other connection must make progress
  // promptly: under the old worker-blocking send this took a 10s stall.
  Client brisk;
  ASSERT_TRUE(brisk.Connect("127.0.0.1", server.port()).ok());
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) {
    QueryResult result;
    Status st = brisk.Query("SELECT count(*) FROM big", &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(result.rows[0].count, 150000u);
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 8000) << "slow reader blocked the worker";

  // The stalled reader's reply was buffered, not corrupted or cut: reading
  // it now yields the full result.
  QueryResult full;
  Status st = stalled.ReadQueryResponse(&full, nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(full.rows.size(), 150000u);
}

TEST(ServerTest, WriteBufferOverflowClosesConnection) {
  // A reader stalled past the per-connection write-buffer limit is a
  // terminal error: the server drops the connection (and releases the
  // buffered bytes) instead of buffering without bound.
  Table table = MakeWideResultTable(150000);
  ServerOptions options;
  options.write_buffer_limit_bytes = 64 * 1024;
  Server server(options);
  server.AddTable("big", &table);
  ASSERT_TRUE(server.Start().ok());

  uint64_t overflows_before =
      obs::Counter::Get("server.write_overflow").value();
  Client stalled;
  ASSERT_TRUE(stalled.Connect("127.0.0.1", server.port()).ok());
  // Never read, and keep stacking multi-megabyte replies: the kernel's
  // socket buffers (which autotune to a few MB on loopback) fill first,
  // then the 64 KiB write buffer overflows and the server cuts the
  // connection. A send failing early just means the cut already happened.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  size_t sent = 0;
  while (obs::Counter::Get("server.write_overflow").value() ==
             overflows_before &&
         std::chrono::steady_clock::now() < deadline) {
    if (!stalled.SendQuery("SELECT u, count(*) FROM big GROUP BY u").ok()) {
      break;
    }
    ++sent;
    // Let the query finish (replies queue per connection; a query sent
    // while one runs would be rejected, which is fine but noisy).
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  }
  EXPECT_GT(obs::Counter::Get("server.write_overflow").value(),
            overflows_before);

  // The stalled connection is dead: draining the kernel-buffered replies
  // eventually hits the cut mid-stream.
  Status st = Status::OK();
  for (size_t i = 0; i <= sent && st.ok(); ++i) {
    st = stalled.ReadQueryResponse(nullptr, nullptr);
  }
  EXPECT_FALSE(st.ok());
  // The server itself is healthy; new connections work (a reader that does
  // read never trips the limit — the buffer drains as fast as it fills).
  Client healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server.port()).ok());
  QueryResult result;
  st = healthy.Query("SELECT count(*) FROM big", &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.rows[0].count, 150000u);
}

TEST(ServerTest, IdleTimeoutClosesQuietConnections) {
  Table table = MakeTestTable(2000);
  ServerOptions options;
  options.idle_timeout_ms = 100;
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  server::ClientOptions copts;
  copts.recv_timeout_ms = 5000;
  Client quiet(copts);
  ASSERT_TRUE(quiet.Connect("127.0.0.1", server.port()).ok());
  // Send nothing: the idle sweep closes the connection, which the client
  // observes as EOF (kUnavailable), well before the recv timeout.
  std::vector<uint8_t> payload;
  FrameType type;
  Status st = quiet.ReadFrameInto(&payload, &type);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();

  // An active connection is not idle: pings reset the clock.
  Client active(copts);
  ASSERT_TRUE(active.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(active.Ping(static_cast<uint64_t>(i)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  QueryResult result;
  st = active.Query("SELECT count(*) FROM t", &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(ServerTest, MidFrameReadTimeoutClosesConnection) {
  // A frame that starts but never finishes (a torn client, or a slowloris)
  // is cut off by the mid-frame read deadline — much shorter than the idle
  // timeout, because a wellformed peer finishes a started frame quickly.
  Table table = MakeTestTable(2000);
  ServerOptions options;
  options.frame_read_timeout_ms = 100;
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  uint64_t timeouts_before =
      obs::Counter::Get("server.timeouts_frame_read").value();
  server::ClientOptions copts;
  copts.recv_timeout_ms = 5000;
  Client torn(copts);
  ASSERT_TRUE(torn.Connect("127.0.0.1", server.port()).ok());
  std::vector<uint8_t> frame =
      server::EncodeQueryFrame("SELECT count(*) FROM t");
  frame.resize(frame.size() / 2);  // ...and the rest never comes
  ASSERT_TRUE(torn.SendRaw(frame).ok());

  std::vector<uint8_t> payload;
  FrameType type;
  Status st = torn.ReadFrameInto(&payload, &type);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_GT(obs::Counter::Get("server.timeouts_frame_read").value(),
            timeouts_before);
}

TEST(ServerTest, PingBypassesAdmission) {
  // Liveness must stay observable under saturation: with the only
  // execution slot held and a query queued behind it, a Ping is answered
  // by the IO thread immediately.
  Table table = MakeTestTable(2000);
  Gate gate;
  gate.Arm();
  ServerOptions options;
  options.admission.max_concurrent_queries = 1;
  options.before_execute_hook = [&gate](QueryContext*) { gate.Enter(); };
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client running, waiting, prober;
  ASSERT_TRUE(running.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(waiting.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(prober.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(running.SendQuery("SELECT count(*) FROM t").ok());
  gate.WaitEntered();
  ASSERT_TRUE(waiting.SendQuery("SELECT count(*) FROM t").ok());
  while (server.admission().queued() == 0) std::this_thread::yield();

  Status st = prober.Ping(0xbeef);
  EXPECT_TRUE(st.ok()) << st.ToString();

  gate.Release();
  EXPECT_TRUE(running.ReadQueryResponse(nullptr, nullptr).ok());
  EXPECT_TRUE(waiting.ReadQueryResponse(nullptr, nullptr).ok());
}

TEST(ServerTest, ShedsLowBandUnderMemoryPressure) {
  // With the soft memory limit below what the process already holds (the
  // test table), the shed policy rejects low-band queries with
  // kUnavailable + a retry-after hint, keeps serving the normal band, and
  // raises the degraded flag on replies.
  Table table = MakeTestTable(2000);
  ServerOptions options;
  options.soft_memory_limit_bytes = 1;
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.degraded());

  Client low, normal;
  ASSERT_TRUE(low.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(normal.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(low.Set("priority", "low").ok());

  QueryResult result;
  Status st = low.Query("SELECT count(*) FROM t", &result);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_NE(st.message().find("shed"), std::string::npos) << st.ToString();
  EXPECT_GT(low.last_retry_after_ms(), 0u);

  // Shedding is rejection, not teardown: the same session still runs
  // queries once it leaves the low band.
  ASSERT_TRUE(low.Set("priority", "normal").ok());
  st = low.Query("SELECT count(*) FROM t", &result);
  ASSERT_TRUE(st.ok()) << st.ToString();

  QueryStatsWire stats;
  st = normal.Query("SELECT count(*) FROM t", &result, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.rows[0].count, 2000u);
  EXPECT_TRUE(stats.degraded);
}

TEST(ServerTest, DrainingRejectsNewQueriesAsUnavailable) {
  // While a drain waits on a running query, freshly submitted queries are
  // rejected with kUnavailable and a retry-after hint — the client should
  // go elsewhere, not queue behind a shutdown.
  Table table = MakeTestTable(2000);
  Gate gate;
  gate.Arm();
  ServerOptions options;
  options.before_execute_hook = [&gate](QueryContext*) { gate.Enter(); };
  Server server(options);
  server.AddTable("t", &table);
  ASSERT_TRUE(server.Start().ok());

  Client running, late;
  ASSERT_TRUE(running.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(late.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(running.SendQuery("SELECT count(*) FROM t").ok());
  gate.WaitEntered();

  std::thread drainer([&server] { server.Shutdown(); });
  // Shutdown flips to draining before it blocks on the running query; give
  // it a beat, then submit on the still-open second connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  QueryResult result;
  Status st = late.Query("SELECT count(*) FROM t", &result);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_NE(st.message().find("shutting down"), std::string::npos);
  EXPECT_GT(late.last_retry_after_ms(), 0u);

  gate.Release();
  st = running.ReadQueryResponse(&result, nullptr);
  drainer.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace bipie
