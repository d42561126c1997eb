// NetServer — the NDJSON front end of the campaign service (DESIGN.md
// §16), over TCP or over one pair of stream fds (`rls serve` on
// stdin/stdout).
//
// A dependency-free POSIX server layered on svc::CampaignService. One
// CampaignRequest (or cancel control line) per line in, one
// CampaignResponse envelope per line out, responses in per-connection
// admission order, each written as soon as it and every response before
// it have completed. Because the service coalesces across submitters, N
// connections asking for the same campaign still run it once — the
// transport adds no new semantics, only reach.
//
// Threading model: one loop thread, however many connections are open.
// It poll(2)s the listener, every connection and a wake fd, and does all
// accepting, reading, line handling, serializing and writing itself, so
// connection state has no locks. Campaigns run on the service's workers;
// each request is submitted with a completion hook that writes one byte
// to the wake fd, so the loop sleeps until a socket is ready or a
// response completes — it never polls on a timer, except to enforce
// drain_flush_ms during shutdown. TCP sockets are non-blocking. A stream
// server (the fd constructor) has no listener and serves its fds as one
// more connection of the same loop; they stay blocking, because stdin
// and stdout share a file description with the parent shell.
//
// Back-pressure: bytes a client has not accepted accumulate in a bounded
// per-connection buffer; past max_write_buffer the connection is
// dropped with a typed overflow (net.overflow_disconnects) — a dead
// client never blocks the loop or pins unbounded memory.
//
// Observability: net.* counters (accepted, disconnects,
// overflow_disconnects, requests, responses, error_responses, cancels,
// frame_errors, bytes_in, bytes_out) and, when a TraceSink is attached,
// `net_conn` open/close events and a `net_rr` event per request/response
// pair, all emitted by the loop thread. Per-request campaign streams
// never flow through the sink (they go to stream_dir files).
//
// Shutdown: shutdown() stops accepting and reading, flushes each
// connection's pending responses (bounded by drain_flush_ms), closes,
// and joins the loop. The CLI calls service.drain() first, then
// server.shutdown() — queued-but-unclaimed requests resolve with typed
// "drained" envelopes that flush like any other response.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"

namespace rls::net {

class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct NetConfig {
  /// Listen address (IPv4 dotted quad or a resolvable name).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see NetServer::port()).
  std::uint16_t port = 0;
  int backlog = 64;
  /// Hard cap on one NDJSON request line (FrameError::kOversize beyond).
  std::size_t max_line_bytes = 1 << 20;
  /// Per-connection cap on un-acked response bytes before a typed
  /// overflow disconnect.
  std::size_t max_write_buffer = 4u << 20;
  /// Per-connection budget for flushing pending responses during drain.
  unsigned drain_flush_ms = 5000;
  /// When set, each request's JSONL event stream is written to
  /// "<stream_dir>/<id>.jsonl" ('/' in ids mapped to '_'), matching
  /// `rls serve --stream-dir`.
  std::string stream_dir;
  /// SO_SNDBUF for accepted sockets (0 = kernel default). Tests shrink
  /// it to force the slow-reader overflow path deterministically.
  int send_buffer_bytes = 0;
};

class NetServer {
 public:
  /// Binds and starts accepting immediately. Throws NetError when the
  /// socket cannot be bound. The service must outlive the server.
  NetServer(svc::CampaignService& service, NetConfig cfg);
  /// A stream server: serves one connection that reads `in_fd` and
  /// writes `out_fd` (left blocking, never closed), with no listener.
  /// Parse errors name their input "stdin:<line>". Serving starts in
  /// wait().
  NetServer(svc::CampaignService& service, NetConfig cfg, int in_fd,
            int out_fd);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (resolves an ephemeral cfg.port = 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Attaches a sink for net_conn / net_rr events. Call before clients
  /// connect (a stream server: before wait()); the sink must outlive the
  /// server.
  void set_sink(obs::TraceSink* sink) { sink_.store(sink); }

  /// Blocks until `stop_fd` turns readable (returns true) or the loop
  /// has finished by itself (returns false): a stream server finishes
  /// once its input hit EOF and every response is written; a TCP server
  /// only after accept() failed (e.g. out of fds) and its open
  /// connections closed.
  bool wait(int stop_fd);

  /// Graceful drain + full teardown (idempotent; also the destructor).
  /// Stops accepting and reading, flushes pending responses with a
  /// per-connection deadline, closes everything and joins the loop.
  void shutdown();

  /// Snapshot of the net.* counters.
  [[nodiscard]] obs::CounterRegistry counters() const;

 private:
  struct Connection;
  class SelfPipe;

  void loop();
  void accept_all();
  void add_connection(int in_fd, int out_fd, bool socket);
  void read_input(Connection& conn);
  void handle_line(Connection& conn, std::string_view line);
  void push_error(Connection& conn, svc::RequestId id, std::string what,
                  const char* code, std::uint64_t retry_hint);
  /// Serializes the ready responses, writes what the fd takes, and says
  /// why the connection must close now (nullptr: keep it open).
  const char* respond(Connection& conn);
  void count_close(const Connection& conn, const char* reason);
  void count(const char* name, std::uint64_t delta = 1);
  void emit_conn(std::uint64_t conn_id, const char* action,
                 const char* reason);
  void write_stream_file(const svc::CampaignResponse& resp) const;

  svc::CampaignService& service_;
  NetConfig cfg_;
  int listen_fd_ = -1;  ///< loop-owned once the loop runs
  std::uint16_t port_ = 0;
  std::shared_ptr<SelfPipe> waker_;  ///< completions and shutdown()
  std::unique_ptr<SelfPipe> done_;   ///< notified as the loop exits
  std::atomic<bool> stopping_{false};
  std::atomic<obs::TraceSink*> sink_{nullptr};
  std::vector<std::unique_ptr<Connection>> connections_;  ///< loop-owned
  std::uint64_t next_conn_id_ = 0;

  mutable std::mutex mu_;  ///< counters_
  obs::CounterRegistry counters_;
  std::thread loop_;  ///< last: it uses every member above
};

}  // namespace rls::net
