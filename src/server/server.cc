#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "core/scan.h"
#include "exec/scheduler.h"
#include "obs/plan_explain.h"
#include "obs/metrics.h"
#include "sql/parser.h"

namespace bipie::server {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsBetween(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

// 0 when `to` precedes `from`: the deadline checks pass the poll loop's
// snapshot as `to`, and a read or write later in the same round stamps its
// connection after it. A negative span cast to uint64 would read as ~2^64
// ms and drop a live connection as idle or stalled.
uint64_t MsBetween(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
          .count());
}

obs::Counter& ConnectionsCounter() {
  static obs::Counter& c = obs::Counter::Get("server.connections");
  return c;
}
obs::Counter& QueriesCounter() {
  static obs::Counter& c = obs::Counter::Get("server.queries");
  return c;
}
obs::Counter& QueryErrorsCounter() {
  static obs::Counter& c = obs::Counter::Get("server.query_errors");
  return c;
}
obs::Counter& ProtocolErrorsCounter() {
  static obs::Counter& c = obs::Counter::Get("server.protocol_errors");
  return c;
}
obs::Counter& CancelsCounter() {
  static obs::Counter& c = obs::Counter::Get("server.cancel_frames");
  return c;
}
obs::Counter& BytesReceivedCounter() {
  static obs::Counter& c = obs::Counter::Get("server.bytes_received");
  return c;
}
obs::Counter& BytesSentCounter() {
  static obs::Counter& c = obs::Counter::Get("server.bytes_sent");
  return c;
}
obs::Counter& PingsCounter() {
  static obs::Counter& c = obs::Counter::Get("server.pings");
  return c;
}
obs::Counter& LoadShedCounter() {
  static obs::Counter& c = obs::Counter::Get("server.load_shed");
  return c;
}
obs::Counter& IdleTimeoutsCounter() {
  static obs::Counter& c = obs::Counter::Get("server.timeouts_idle");
  return c;
}
obs::Counter& FrameTimeoutsCounter() {
  static obs::Counter& c = obs::Counter::Get("server.timeouts_frame_read");
  return c;
}
obs::Counter& WriteStallsCounter() {
  static obs::Counter& c = obs::Counter::Get("server.write_stalls");
  return c;
}
obs::Counter& WriteOverflowsCounter() {
  static obs::Counter& c = obs::Counter::Get("server.write_overflow");
  return c;
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

// One client connection: socket state, the session (settings + tracker), the
// at-most-one in-flight query, and the bounded write buffer the IO thread
// drains. Owned by shared_ptr — the IO thread holds one reference, each
// running query job another, so the fd outlives every writer and is closed
// exactly once.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {
    const auto now = Clock::now();
    last_read_activity = now;
    last_write_progress = now;
  }
  ~Connection() {
    // Output still buffered when the connection dies is discarded; its
    // session charge goes with it. After that the session must balance:
    // every query of this session released its tracker chain when it
    // finished (the tracker-balance invariant), and nothing else charges.
    if (wbuf_charged > 0) session_tracker.Release(wbuf_charged);
    wbuf_charged = 0;
    BIPIE_DCHECK(session_tracker.used() == 0);
    if (fd >= 0) ::close(fd);
  }

  const int fd;
  // Receive buffer: bytes read but not yet consumed as frames. NextFrame's
  // payload cap bounds it at one frame of backlog.
  std::vector<uint8_t> rbuf;
  size_t roffset = 0;
  // IO-thread-only deadline state.
  Clock::time_point last_read_activity{};
  bool mid_frame = false;  // rbuf ends inside a partial frame

  // The session: settings deltas applied by SetSetting frames, and the
  // tracker every query of this connection parents under.
  QuerySettings settings;
  MemoryTracker session_tracker{&MemoryTracker::Process(), "session"};

  std::mutex state_mu;  // guards `active`
  std::shared_ptr<ActiveQuery> active;

  // Write side, guarded by write_mu: frames are appended (worker or IO
  // thread) and drained by the IO thread via POLLOUT — a worker never
  // blocks in send. wbuf_charged tracks the buffered-but-unsent bytes
  // charged to session_tracker.
  std::mutex write_mu;
  std::vector<uint8_t> wbuf;
  size_t woffset = 0;
  size_t wbuf_charged = 0;
  Clock::time_point last_write_progress{};
  std::atomic<bool> has_pending_write{false};

  // closing: stop taking input, flush wbuf, then drop (protocol errors —
  // the error frame must still reach the peer). closed: drop now.
  std::atomic<bool> closing{false};
  std::atomic<bool> closed{false};
};

// One in-flight query on a connection, from Query frame to final frame.
struct Server::ActiveQuery {
  explicit ActiveQuery(MemoryTracker* session_tracker)
      : ctx(session_tracker) {}

  QueryContext ctx;
  std::string statement;
  std::string table_name;
  bool explain = false;
  const Table* table = nullptr;
  Clock::time_point enqueued{};
  std::atomic<uint64_t> queue_wait_ns{0};
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), admission_(options_.admission) {}

Server::~Server() { Shutdown(); }

void Server::AddTable(std::string name, const Table* table) {
  tables_[std::move(name)] = table;
}

Status Server::Start() {
  if (started_) return Status::Internal("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind/listen failed: " +
                            std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  if (::pipe(wake_fds_) != 0 || !SetNonBlocking(wake_fds_[0]) ||
      !SetNonBlocking(wake_fds_[1]) || !SetNonBlocking(listen_fd_)) {
    Shutdown();
    return Status::Internal("pipe/nonblock setup failed");
  }

  if (options_.soft_memory_limit_bytes > 0) {
    prev_soft_limit_ = MemoryTracker::Process().soft_limit();
    MemoryTracker::Process().set_soft_limit(options_.soft_memory_limit_bytes);
  }

  started_ = true;
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::OK();
}

void Server::Wake() {
  if (wake_fds_[1] >= 0) {
    char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &b, 1);
  }
}

void Server::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;

  // Drain: no new queries, fail everything still queued, let running
  // queries finish.
  draining_.store(true, std::memory_order_release);
  admission_.CancelQueued();
  {
    std::unique_lock<std::mutex> lock(jobs_mu_);
    jobs_cv_.wait(lock, [this] { return jobs_in_flight_ == 0; });
  }

  // Flush: the IO thread keeps draining buffered replies and stops once
  // every connection's output is out (or its write stalled past the
  // timeout — the stall sweep bounds this phase).
  flushing_.store(true, std::memory_order_release);
  Wake();
  io_thread_.join();

  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int i = 0; i < 2; ++i) {
    if (wake_fds_[i] >= 0) ::close(wake_fds_[i]);
    wake_fds_[i] = -1;
  }
  if (options_.soft_memory_limit_bytes > 0) {
    MemoryTracker::Process().set_soft_limit(prev_soft_limit_);
    if (prev_soft_limit_ == 0) {
      MemoryTracker::Process().reset_soft_limit_exceeded();
    }
  }
}

void Server::IoLoop() {
  std::vector<pollfd> pfds;
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    bool accepting = !draining_.load(std::memory_order_acquire) &&
                     connections_.size() < options_.max_connections;
    if (accepting) pfds.push_back({listen_fd_, POLLIN, 0});
    size_t conn_base = pfds.size();
    size_t polled = connections_.size();  // AcceptOne may append more below
    for (const auto& conn : connections_) {
      short events = POLLIN;
      if (conn->has_pending_write.load(std::memory_order_acquire)) {
        events |= POLLOUT;
      }
      pfds.push_back({conn->fd, events, 0});
    }

    int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
    // Sweep queued async waiters for cancels/deadlines every round; 50ms
    // resolution is plenty for deadline granularity.
    admission_.Tick();
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (BIPIE_FAILPOINT("server/poll_delay")) {
      // Delayed wakeup: the IO thread reacts late, as if the machine
      // stalled. Everything must still be correct, just slower.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (accepting && (pfds[conn_base - 1].revents & POLLIN)) AcceptOne();

    // Service each polled connection: drain its write buffer, read and
    // dispatch frames, tick its deadlines; drop finished ones. Only the
    // `polled` prefix of connections_ has a pfd entry — connections
    // AcceptOne just added are picked up next round.
    const auto now = Clock::now();
    for (size_t i = 0; i < polled;) {
      auto conn = connections_[i];
      short revents = pfds[conn_base + i].revents;
      bool alive = true;
      if (!conn->closed.load(std::memory_order_acquire) &&
          (revents & POLLOUT)) {
        std::lock_guard<std::mutex> lock(conn->write_mu);
        if (!FlushLocked(conn.get())) {
          conn->closed.store(true, std::memory_order_release);
        }
      }
      if (!conn->closed.load(std::memory_order_acquire) &&
          (revents & (POLLIN | POLLERR | POLLHUP))) {
        alive = ServiceReadable(conn);
      }
      if (alive && !conn->closed.load(std::memory_order_acquire)) {
        alive = ConnectionHealthy(conn.get(), now);
      }
      const bool flushed =
          !conn->has_pending_write.load(std::memory_order_acquire);
      if (!alive || conn->closed.load(std::memory_order_acquire) ||
          (conn->closing.load(std::memory_order_acquire) && flushed)) {
        conn->closed.store(true, std::memory_order_release);
        {
          std::lock_guard<std::mutex> lock(conn->state_mu);
          if (conn->active) conn->active->ctx.Cancel();
        }
        connections_.erase(connections_.begin() + static_cast<ptrdiff_t>(i));
        pfds.erase(pfds.begin() + static_cast<ptrdiff_t>(conn_base + i));
        --polled;
      } else {
        ++i;
      }
    }

    // Shutdown flush phase: exit once nothing is left to drain. Stalled
    // peers were closed by the write-stall sweep above, so this terminates.
    if (flushing_.load(std::memory_order_acquire)) {
      bool pending = false;
      for (const auto& conn : connections_) {
        if (conn->has_pending_write.load(std::memory_order_acquire)) {
          pending = true;
          break;
        }
      }
      if (!pending) break;
    }
  }
  // Loop exit: drain finished (no jobs in flight), so dropping our
  // references closes every idle connection.
  for (auto& conn : connections_) {
    conn->closed.store(true, std::memory_order_release);
  }
  connections_.clear();
}

void Server::AcceptOne() {
  while (connections_.size() < options_.max_connections) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: poll again
    if (BIPIE_FAILPOINT("server/accept_fail")) {
      // Simulated accept-path failure (fd exhaustion, transient kernel
      // error): the client sees a closed connection and must retry.
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ConnectionsCounter().Increment();
    connections_.push_back(std::make_shared<Connection>(fd));
  }
}

bool Server::ServiceReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  if (conn->closing.load(std::memory_order_acquire)) {
    // The stream is already condemned (protocol error being flushed):
    // swallow whatever the peer still sends so poll stays quiet, and
    // notice the peer going away.
    while (true) {
      ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) continue;
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  while (true) {
    if (BIPIE_FAILPOINT("server/read_reset")) return false;  // ~ECONNRESET
    size_t cap = sizeof(buf);
    if (BIPIE_FAILPOINT("server/read_short")) cap = 1;  // torn read
    ssize_t n = ::recv(conn->fd, buf, cap, 0);
    if (n > 0) {
      BytesReceivedCounter().Add(static_cast<uint64_t>(n));
      conn->rbuf.insert(conn->rbuf.end(), buf, buf + n);
      conn->last_read_activity = Clock::now();
      continue;
    }
    if (n == 0) return false;  // client closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // ECONNRESET and friends
  }

  FrameView frame;
  Status error;
  while (true) {
    FrameScan scan = NextFrame(conn->rbuf, &conn->roffset, &frame, &error);
    if (scan == FrameScan::kNeedMore) break;
    if (scan == FrameScan::kError) {
      // Hostile or corrupt framing: report once, flush the report, then
      // drop the stream (a desynced length prefix cannot be
      // resynchronized).
      ProtocolErrorsCounter().Increment();
      conn->closing.store(true, std::memory_order_release);
      SendFrame(conn, EncodeErrorFrame(error));
      conn->rbuf.clear();
      conn->roffset = 0;
      conn->mid_frame = false;
      return true;
    }
    DispatchFrame(conn, frame);
    if (conn->closed.load(std::memory_order_acquire)) return false;
    if (conn->closing.load(std::memory_order_acquire)) {
      conn->rbuf.clear();
      conn->roffset = 0;
      conn->mid_frame = false;
      return true;
    }
  }
  conn->rbuf.erase(conn->rbuf.begin(),
                   conn->rbuf.begin() +
                       static_cast<std::ptrdiff_t>(conn->roffset));
  conn->roffset = 0;
  conn->mid_frame = !conn->rbuf.empty();
  return true;
}

bool Server::ConnectionHealthy(Connection* conn, Clock::time_point now) {
  // Write stall: buffered output exists and the socket took none of it for
  // too long — the peer stopped reading. Forfeits the rest of the reply.
  if (options_.write_stall_timeout_ms > 0 &&
      conn->has_pending_write.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->woffset < conn->wbuf.size() &&
        MsBetween(conn->last_write_progress, now) >=
            options_.write_stall_timeout_ms) {
      WriteStallsCounter().Increment();
      return false;
    }
  }
  if (conn->closing.load(std::memory_order_acquire)) return true;
  if (conn->mid_frame) {
    // Stuck mid-frame: the peer sent a length prefix and stalled. A torn
    // sender cannot pin a socket indefinitely.
    if (options_.frame_read_timeout_ms > 0 &&
        MsBetween(conn->last_read_activity, now) >=
            options_.frame_read_timeout_ms) {
      FrameTimeoutsCounter().Increment();
      return false;
    }
    return true;
  }
  if (options_.idle_timeout_ms > 0 &&
      !conn->has_pending_write.load(std::memory_order_acquire)) {
    bool busy;
    {
      std::lock_guard<std::mutex> lock(conn->state_mu);
      busy = conn->active != nullptr;
    }
    if (!busy && MsBetween(conn->last_read_activity, now) >=
                     options_.idle_timeout_ms) {
      IdleTimeoutsCounter().Increment();
      return false;
    }
  }
  return true;
}

void Server::DispatchFrame(const std::shared_ptr<Connection>& conn,
                           const FrameView& frame) {
  switch (frame.type) {
    case FrameType::kSetSetting: {
      std::string name, value;
      Status st = DecodeSetSettingFrame(frame, &name, &value);
      if (!st.ok()) {
        ProtocolErrorsCounter().Increment();
        conn->closing.store(true, std::memory_order_release);
        SendFrame(conn, EncodeErrorFrame(st));
        return;
      }
      // Unknown names / bad values are user errors, not protocol errors:
      // the session survives them.
      st = conn->settings.Set(name, value);
      SendFrame(conn, st.ok() ? EncodeOkFrame() : EncodeErrorFrame(st));
      return;
    }
    case FrameType::kCancel: {
      CancelsCounter().Increment();
      std::shared_ptr<ActiveQuery> active;
      {
        std::lock_guard<std::mutex> lock(conn->state_mu);
        active = conn->active;
      }
      // Cancelling with nothing in flight is a no-op, not an error (the
      // query may have finished while the frame was in transit).
      if (active) active->ctx.Cancel();
      return;
    }
    case FrameType::kPing: {
      // Liveness probe: answered inline on the IO thread, so it bypasses
      // the admission queue by construction and works even while a drain
      // or an overload rejects every query.
      uint64_t token = 0;
      Status st = DecodePingFrame(frame, &token);
      if (!st.ok()) {
        ProtocolErrorsCounter().Increment();
        conn->closing.store(true, std::memory_order_release);
        SendFrame(conn, EncodeErrorFrame(st));
        return;
      }
      PingsCounter().Increment();
      SendFrame(conn, EncodePongFrame(token));
      return;
    }
    case FrameType::kQuery:
      HandleQueryFrame(conn, frame);
      return;
    default:
      // Server->client frame types from a client are protocol violations.
      ProtocolErrorsCounter().Increment();
      conn->closing.store(true, std::memory_order_release);
      SendFrame(conn, EncodeErrorFrame(Status::InvalidArgument(
                          "protocol error: unexpected client frame type")));
      return;
  }
}

bool Server::ShedActive(uint32_t* retry_after_ms) const {
  if (options_.soft_memory_limit_bytes > 0 &&
      MemoryTracker::Process().used() >= options_.soft_memory_limit_bytes) {
    *retry_after_ms = 200;
    return true;
  }
  if (options_.shed_queue_wait_ms > 0) {
    const uint64_t wait_ms = admission_.OldestWaitMs(QueryPriority::kLow);
    if (wait_ms >= options_.shed_queue_wait_ms) {
      // Hint roughly the backlog's age: retrying sooner would just rejoin
      // the same queue.
      *retry_after_ms = static_cast<uint32_t>(
          std::min<uint64_t>(std::max<uint64_t>(wait_ms, 50), 60000));
      return true;
    }
  }
  return false;
}

bool Server::degraded() const {
  uint32_t unused = 0;
  return ShedActive(&unused);
}

void Server::HandleQueryFrame(const std::shared_ptr<Connection>& conn,
                              const FrameView& frame) {
  std::string sql;
  Status st = DecodeQueryFrame(frame, &sql);
  if (!st.ok()) {
    ProtocolErrorsCounter().Increment();
    conn->closing.store(true, std::memory_order_release);
    SendFrame(conn, EncodeErrorFrame(st));
    return;
  }
  QueriesCounter().Increment();

  if (draining_.load(std::memory_order_acquire)) {
    QueryErrorsCounter().Increment();
    SendFrame(conn, EncodeErrorFrame(
                        Status::Unavailable("server is shutting down"),
                        /*retry_after_ms=*/1000));
    return;
  }

  QueryPriority priority = QueryPriority::kNormal;
  if (!conn->settings.priority().empty()) {
    ParseQueryPriority(conn->settings.priority(), &priority);
  }

  // Overload shedding: while the process sits above its soft memory limit
  // or the low band's queue delay is over the threshold, low-band queries
  // are rejected up front — never queued — with a retry-after hint. High
  // and normal bands keep flowing; this is the graceful part of degrading.
  uint32_t retry_after_ms = 0;
  if (priority == QueryPriority::kLow && ShedActive(&retry_after_ms)) {
    LoadShedCounter().Increment();
    QueryErrorsCounter().Increment();
    SendFrame(conn,
              EncodeErrorFrame(Status::Unavailable(
                                   "server overloaded: low-priority query "
                                   "shed, retry later"),
                               retry_after_ms));
    return;
  }

  // Schema-free pre-parse: enough to route to a table and spot EXPLAIN.
  // The full parse happens on the worker, against the table's schema.
  Result<PreparsedQuery> pre = PreparseQuery(sql);
  if (!pre.ok()) {
    QueryErrorsCounter().Increment();
    SendFrame(conn, EncodeErrorFrame(pre.status()));
    return;
  }
  auto table_it = tables_.find(pre.value().table_name);
  if (table_it == tables_.end()) {
    QueryErrorsCounter().Increment();
    SendFrame(conn, EncodeErrorFrame(Status::InvalidArgument(
                        "unknown table '" + pre.value().table_name + "'")));
    return;
  }

  std::shared_ptr<ActiveQuery> query;
  {
    std::lock_guard<std::mutex> lock(conn->state_mu);
    if (conn->active) {
      QueryErrorsCounter().Increment();
      SendFrame(conn, EncodeErrorFrame(Status::InvalidArgument(
                          "a query is already in flight on this "
                          "connection")));
      return;
    }
    query = std::make_shared<ActiveQuery>(&conn->session_tracker);
    conn->active = query;
  }
  query->statement = std::move(pre.value().statement);
  query->table_name = std::move(pre.value().table_name);
  query->explain = pre.value().explain;
  query->table = table_it->second;
  // Session settings become the query's settings; the deadline clock starts
  // now, so time spent queued counts against it (Tick expires queued
  // queries whose deadline passes before a slot frees up).
  query->ctx.settings() = conn->settings;
  query->ctx.ApplySettings();
  query->enqueued = Clock::now();

  st = admission_.Enqueue(
      priority, &query->ctx,
      [this, conn, query](Status admit, AdmissionController::Ticket ticket) {
        query->queue_wait_ns.store(NsBetween(query->enqueued, Clock::now()),
                                   std::memory_order_relaxed);
        if (!admit.ok()) {
          QueryErrorsCounter().Increment();
          SendFrame(conn, EncodeErrorFrame(admit));
          std::lock_guard<std::mutex> lock(conn->state_mu);
          if (conn->active == query) conn->active.reset();
          return;
        }
        SubmitQueryJob(conn, query, std::move(ticket));
      });
  if (!st.ok()) {
    // Band queue full: structured saturation answer, connection kept.
    QueryErrorsCounter().Increment();
    SendFrame(conn, EncodeErrorFrame(st));
    std::lock_guard<std::mutex> lock(conn->state_mu);
    if (conn->active == query) conn->active.reset();
  }
}

void Server::SubmitQueryJob(std::shared_ptr<Connection> conn,
                            std::shared_ptr<ActiveQuery> query,
                            AdmissionController::Ticket ticket) {
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    ++jobs_in_flight_;
  }
  // Scheduler tasks must be copyable; the move-only ticket rides in a
  // shared_ptr and is released only after the query's frames are buffered,
  // so the slot stays held for the query's whole execution.
  auto held = std::make_shared<AdmissionController::Ticket>(std::move(ticket));
  Scheduler::Global().Submit([this, conn, query, held]() mutable {
    std::vector<uint8_t> terminal = RunQuery(conn, query);
    held->Release();
    // Clear the active-query slot BEFORE the terminal frame goes out: a
    // request-response client that reads the terminal frame and fires its
    // next query must find the connection free.
    FinishQuery(conn, query);
    SendFrame(conn, terminal);
    // Drop the captured references BEFORE counting the job done: once
    // jobs_in_flight_ hits zero, Shutdown may proceed on the promise that
    // no job still pins a Connection (and its socket) — a ref released
    // after the decrement would hold the fd past Shutdown's return.
    conn.reset();
    query.reset();
    held.reset();
    // Count the job done only AFTER the terminal frame is buffered:
    // Shutdown's drain waits on this count, then its flush phase waits for
    // the buffers themselves, so a drained query's client still reads its
    // full reply. Notify under the mutex: once the count drops, Shutdown
    // may return and destroy the condvar, so the notify must already be
    // over by then.
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      --jobs_in_flight_;
      jobs_cv_.notify_all();
    }
  });
}

std::vector<uint8_t> Server::RunQuery(
    const std::shared_ptr<Connection>& conn,
    const std::shared_ptr<ActiveQuery>& query) {
  if (options_.before_execute_hook) options_.before_execute_hook(&query->ctx);

  Result<ParsedQuery> parsed = ParseQuery(query->statement, *query->table);
  if (!parsed.ok()) {
    QueryErrorsCounter().Increment();
    return EncodeErrorFrame(parsed.status());
  }

  ScanOptions scan_options = MakeScanOptions(&query->ctx);
  // The server already holds this query's admission slot; the scan's own
  // admission call goes through the unlimited pass-through so the query is
  // never queued twice.
  scan_options.admission = &passthrough_;
  BIPieScan scan(*query->table, std::move(parsed.value().spec), scan_options);

  if (query->explain) {
    Result<PlanExplain> plan = scan.Explain();
    if (!plan.ok()) {
      QueryErrorsCounter().Increment();
      return EncodeErrorFrame(plan.status());
    }
    return EncodeExplainFrame(plan.value().ToText());
  }

  Clock::time_point exec_start = Clock::now();
  Result<QueryResult> result = scan.Execute();
  if (!result.ok()) {
    // Execution failures — including kCancelled and a memory limit's
    // kResourceExhausted — are clean Error frames; the connection and its
    // session live on.
    QueryErrorsCounter().Increment();
    return EncodeErrorFrame(result.status());
  }

  std::vector<std::vector<uint8_t>> frames;
  EncodeResultFrames(result.value(), &frames);
  for (const auto& frame : frames) {
    if (!SendFrame(conn, frame)) break;  // terminal send will no-op too
  }

  QueryStatsWire wire;
  const ScanStats& stats = scan.stats();
  wire.rows_scanned = stats.rows_scanned;
  wire.rows_selected = stats.rows_selected;
  wire.batches = stats.batches;
  wire.segments_scanned = stats.segments_scanned;
  wire.segments_eliminated = stats.segments_eliminated;
  wire.runs_aggregated = stats.runs_aggregated;
  wire.queue_wait_ns = query->queue_wait_ns.load(std::memory_order_relaxed);
  wire.exec_ns = NsBetween(exec_start, Clock::now());
  wire.peak_memory_bytes = query->ctx.memory_tracker().peak();
  wire.used_hash_fallback = stats.used_hash_fallback;
  wire.degraded = degraded();
  return EncodeStatsFrame(wire);
}

void Server::FinishQuery(const std::shared_ptr<Connection>& conn,
                         const std::shared_ptr<ActiveQuery>& query) {
  std::lock_guard<std::mutex> lock(conn->state_mu);
  if (conn->active == query) conn->active.reset();
}

bool Server::FlushLocked(Connection* conn) {
  // Bytes handed to the kernel stop being session memory, and a peer that
  // has read a reply may send its next query at once. So the buffer's
  // charge is released before the send and only the unsent residue is
  // charged again below: the next query never finds the previous reply
  // still charged to its session. (A failed send closes the connection
  // with its residue uncharged.)
  conn->session_tracker.Release(conn->wbuf_charged);
  conn->wbuf_charged = 0;
  while (conn->woffset < conn->wbuf.size()) {
    size_t left = conn->wbuf.size() - conn->woffset;
    if (BIPIE_FAILPOINT("server/send_fail")) return false;  // ~EPIPE
    if (BIPIE_FAILPOINT("server/send_partial")) left = 1;   // torn write
    ssize_t n =
        ::send(conn->fd, conn->wbuf.data() + conn->woffset, left, MSG_NOSIGNAL);
    if (n > 0) {
      conn->woffset += static_cast<size_t>(n);
      conn->last_write_progress = Clock::now();
      BytesSentCounter().Add(static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // ECONNRESET / EPIPE: peer is gone
  }
  // Compact, and charge what is still buffered.
  if (conn->woffset == conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->woffset = 0;
  } else if (conn->woffset >= (256u << 10)) {
    conn->wbuf.erase(conn->wbuf.begin(),
                     conn->wbuf.begin() +
                         static_cast<std::ptrdiff_t>(conn->woffset));
    conn->woffset = 0;
  }
  const size_t pending = conn->wbuf.size() - conn->woffset;
  conn->session_tracker.ForceCharge(pending);
  conn->wbuf_charged = pending;
  conn->has_pending_write.store(pending > 0, std::memory_order_release);
  return true;
}

bool Server::SendFrame(const std::shared_ptr<Connection>& conn,
                       const std::vector<uint8_t>& frame) {
  if (conn->closed.load(std::memory_order_acquire)) return false;
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    const size_t pending = conn->wbuf.size() - conn->woffset;
    if (pending > options_.write_buffer_limit_bytes) {
      // Backpressure terminal: the peer is not draining and the buffer is
      // over its bound. The frame (and the rest of the reply) is
      // forfeited; the connection closes. Checked before appending, so
      // any single frame fits while the buffer is under the limit.
      WriteOverflowsCounter().Increment();
      conn->closed.store(true, std::memory_order_release);
      return false;
    }
    if (pending == 0) conn->last_write_progress = Clock::now();
    conn->wbuf.insert(conn->wbuf.end(), frame.begin(), frame.end());
    // Buffered output is session memory: ForceCharge (the bytes exist
    // either way) so a hoarding client shows up in the tracker hierarchy.
    conn->session_tracker.ForceCharge(frame.size());
    conn->wbuf_charged += frame.size();
    if (!FlushLocked(conn.get())) {
      conn->closed.store(true, std::memory_order_release);
      return false;
    }
    need_wake = conn->has_pending_write.load(std::memory_order_acquire);
  }
  // Residue stays for the IO thread: make sure its poll set includes
  // POLLOUT for this fd promptly.
  if (need_wake) Wake();
  return true;
}

}  // namespace bipie::server
