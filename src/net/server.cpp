#include "net/server.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>

#include "net/framing.hpp"

namespace rls::net {

namespace {

std::string errno_text() { return std::strerror(errno); }

bool is_blank(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

}  // namespace

/// A non-blocking, close-on-exec self-pipe. The wake pipe is shared with
/// every completion hook, so a hook that fires after the server is gone
/// still writes into an open pipe.
class NetServer::SelfPipe {
 public:
  SelfPipe() {
    if (::pipe2(fds_, O_CLOEXEC | O_NONBLOCK) != 0) {
      throw NetError("cannot create self-pipe: " + errno_text());
    }
  }
  ~SelfPipe() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  SelfPipe(const SelfPipe&) = delete;
  SelfPipe& operator=(const SelfPipe&) = delete;

  [[nodiscard]] int read_fd() const noexcept { return fds_[0]; }
  /// A full pipe is already readable, so a failed write loses nothing.
  void notify() const noexcept { (void)!::write(fds_[1], "w", 1); }
  /// Bytes beyond one read only cost the loop one more pass.
  void clear() const noexcept {
    char buf[512];
    (void)!::read(fds_[0], buf, sizeof buf);
  }

 private:
  int fds_[2] = {-1, -1};
};

struct NetServer::Connection {
  Connection(std::uint64_t conn_id, int in, int out, bool is_socket,
             std::size_t max_line_bytes)
      : id(conn_id),
        in_fd(in),
        out_fd(out),
        socket(is_socket),
        origin(is_socket ? "conn" + std::to_string(conn_id) : "stdin"),
        splitter(max_line_bytes) {}
  ~Connection() {
    if (socket) ::close(in_fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const std::uint64_t id;
  const int in_fd, out_fd;  ///< one fd for a socket
  /// A socket is non-blocking and owned here; stream fds are neither.
  const bool socket;
  const std::string origin;  ///< names this input in parse errors
  LineSplitter splitter;
  std::uint64_t lines = 0;  ///< input line number
  bool reading = true;
  /// Responses in admission order. Errors found at admission are
  /// already-ready futures, so the output order always matches the input.
  std::deque<std::shared_future<svc::CampaignResponse>> pending;
  std::string outbuf;  ///< serialized bytes the fd has not taken yet
};

NetServer::NetServer(svc::CampaignService& service, NetConfig cfg)
    : service_(service),
      cfg_(std::move(cfg)),
      waker_(std::make_shared<SelfPipe>()),
      done_(std::make_unique<SelfPipe>()) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(cfg_.port);
  const int gai =
      ::getaddrinfo(cfg_.bind_address.c_str(), port_str.c_str(), &hints, &res);
  if (gai != 0) {
    throw NetError("cannot resolve bind address '" + cfg_.bind_address +
                   "': " + ::gai_strerror(gai));
  }
  listen_fd_ = ::socket(res->ai_family,
                        res->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        res->ai_protocol);
  if (listen_fd_ < 0) {
    ::freeaddrinfo(res);
    throw NetError("cannot create listen socket: " + errno_text());
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(listen_fd_, res->ai_addr, res->ai_addrlen) != 0 ||
      ::listen(listen_fd_, cfg_.backlog) != 0) {
    const std::string msg = errno_text();
    ::freeaddrinfo(res);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw NetError("cannot listen on " + cfg_.bind_address + ":" + port_str +
                   ": " + msg);
  }
  ::freeaddrinfo(res);
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  loop_ = std::thread([this] { loop(); });
}

NetServer::NetServer(svc::CampaignService& service, NetConfig cfg, int in_fd,
                     int out_fd)
    : service_(service),
      cfg_(std::move(cfg)),
      waker_(std::make_shared<SelfPipe>()),
      done_(std::make_unique<SelfPipe>()) {
  add_connection(in_fd, out_fd, /*socket=*/false);
}

NetServer::~NetServer() { shutdown(); }

void NetServer::count(const char* name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lk(mu_);
  counters_.add(name, delta);
}

void NetServer::emit_conn(std::uint64_t conn_id, const char* action,
                          const char* reason) {
  obs::TraceSink* sink = sink_.load();
  if (sink == nullptr) return;
  obs::TraceEvent ev("net_conn");
  ev.u64("conn", conn_id).str("action", action);
  if (*reason != '\0') ev.str("reason", reason);
  sink->write(ev);
}

void NetServer::write_stream_file(const svc::CampaignResponse& resp) const {
  if (cfg_.stream_dir.empty() || !resp.ok) return;
  std::error_code ec;
  std::filesystem::create_directories(cfg_.stream_dir, ec);  // best effort
  std::string name;
  for (const char c : resp.id) {
    name.push_back(c == '/' ? '_' : c);  // ids may not escape the dir
  }
  std::ofstream out(cfg_.stream_dir + "/" + name + ".jsonl",
                    std::ios::binary | std::ios::trunc);
  out.write(resp.stream.data(),
            static_cast<std::streamsize>(resp.stream.size()));
}

bool NetServer::wait(int stop_fd) {
  // A stream server starts serving here rather than in its constructor,
  // so a sink attached in between sees its connection open.
  if (!loop_.joinable()) loop_ = std::thread([this] { loop(); });
  pollfd fds[2] = {{stop_fd, POLLIN, 0}, {done_->read_fd(), POLLIN, 0}};
  while (::poll(fds, 2, -1) < 0 && errno == EINTR) {
  }
  return fds[0].revents != 0;
}

void NetServer::loop() {
  using Clock = std::chrono::steady_clock;
  bool stopping = false;
  Clock::time_point deadline{};
  std::vector<pollfd> fds;
  // The connection to read when fds[first + k] fires; null for an entry
  // that only wakes the loop to write again.
  std::vector<Connection*> polled;
  // Only a stream server has a connection before its loop runs.
  for (const auto& c : connections_) emit_conn(c->id, "open", "");
  for (;;) {
    if (!stopping && stopping_.load()) {
      // Stop accepting and reading; what is pending still flushes, but a
      // client that will not take its bytes cannot hold shutdown hostage.
      stopping = true;
      deadline = Clock::now() + std::chrono::milliseconds(cfg_.drain_flush_ms);
      if (listen_fd_ >= 0) ::close(listen_fd_);
      listen_fd_ = -1;
      for (const auto& c : connections_) c->reading = false;
    }
    const bool late = stopping && Clock::now() > deadline;
    fds.assign(1, pollfd{waker_->read_fd(), POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    const std::size_t first = fds.size();
    polled.clear();
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection& c = **it;
      const char* reason = respond(c);
      if (reason == nullptr && !c.reading && c.pending.empty() &&
          c.outbuf.empty()) {
        reason = "eof";
      }
      if (reason == nullptr && late) reason = "drain_timeout";
      if (reason != nullptr) {
        count_close(c, reason);
        it = connections_.erase(it);  // closes a socket
        continue;
      }
      if (c.reading) {
        fds.push_back({c.in_fd, POLLIN, 0});
        polled.push_back(&c);
      }
      if (!c.outbuf.empty()) {  // only a non-blocking fd leaves bytes here
        fds.push_back({c.out_fd, POLLOUT, 0});
        polled.push_back(nullptr);
      }
      ++it;
    }
    if (listen_fd_ < 0 && connections_.empty()) break;

    int timeout_ms = -1;  // sleep until an fd or a completion wakes us
    if (stopping) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      timeout_ms = static_cast<int>(std::max<std::int64_t>(left.count(), 0));
      ++timeout_ms;  // wake just past the deadline, not just before it
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) waker_->clear();
    for (std::size_t k = 0; k < polled.size(); ++k) {
      Connection* c = polled[k];
      if (c != nullptr && c->reading && fds[first + k].revents != 0) {
        read_input(*c);
      }
    }
    if (first == 2 && (fds[1].revents & POLLIN) != 0) accept_all();
  }
  for (const auto& c : connections_) count_close(*c, "error");
  connections_.clear();
  done_->notify();
}

void NetServer::accept_all() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // Out of fds or worse: stop accepting. The loop then ends once
        // the open connections close.
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (cfg_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg_.send_buffer_bytes,
                   sizeof cfg_.send_buffer_bytes);
    }
    add_connection(fd, fd, /*socket=*/true);
    emit_conn(connections_.back()->id, "open", "");
  }
}

void NetServer::add_connection(int in_fd, int out_fd, bool socket) {
  const std::uint64_t id = next_conn_id_++;
  connections_.push_back(std::make_unique<Connection>(
      id, in_fd, out_fd, socket, cfg_.max_line_bytes));
  count("net.accepted");
}

void NetServer::count_close(const Connection& conn, const char* reason) {
  // Runs before the caller drops the connection (closing its socket), so a
  // client that sees EOF also sees the count. Undelivered responses are
  // dropped; their executions still finish and land in the store.
  count("net.disconnects");
  emit_conn(conn.id, "close", reason);
}

void NetServer::read_input(Connection& conn) {
  char buf[1 << 16];
  const ssize_t n = ::read(conn.in_fd, buf, sizeof buf);
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return;
  }
  if (n <= 0) {
    // An orderly EOF flushes a final unterminated line; an error drops it.
    if (n == 0) {
      if (const auto last = conn.splitter.finish()) handle_line(conn, *last);
    }
    conn.reading = false;
    return;
  }
  count("net.bytes_in", static_cast<std::uint64_t>(n));
  try {
    conn.splitter.feed(
        std::string_view(buf, static_cast<std::size_t>(n)),
        [&](std::string_view line) { handle_line(conn, line); });
  } catch (const FrameError& e) {
    // A framing violation poisons the rest of the stream: answer with one
    // typed envelope and stop reading; earlier responses still flush.
    count("net.frame_errors");
    push_error(conn, "", e.what(), svc::error_code::kFrame, 0);
    conn.reading = false;
  }
}

// One NDJSON line: a campaign request (-> an ordered pending future), a
// cancel control line (no response slot — the cancellation outcome is
// observable on the *target's* envelope), or a typed error envelope.
void NetServer::handle_line(Connection& conn, std::string_view line) {
  ++conn.lines;
  if (is_blank(line)) return;
  const std::string number = std::to_string(conn.lines);
  try {
    svc::ParsedLine parsed = svc::parse_line(line, conn.origin + ":" + number);
    if (parsed.cancel) {
      count("net.cancels");
      service_.cancel(parsed.cancel->target);
      return;
    }
    count("net.requests");
    conn.pending.push_back(
        service_.submit(std::move(*parsed.request), nullptr,
                        [waker = waker_] { waker->notify(); }));
  } catch (const svc::QueueFullError& e) {
    count("net.requests");
    push_error(conn, e.id, e.what(), svc::error_code::kQueueFull,
               e.retry_after_hint);
  } catch (const svc::ServiceStoppedError& e) {
    count("net.requests");
    push_error(conn, "line" + number, e.what(), svc::error_code::kDrained,
               25);
  } catch (const std::exception& e) {
    // Parse / validation errors (RequestError, JsonError).
    count("net.requests");
    push_error(conn, "line" + number, e.what(), svc::error_code::kRequest, 0);
  }
}

void NetServer::push_error(Connection& conn, svc::RequestId id,
                           std::string what, const char* code,
                           std::uint64_t retry_hint) {
  svc::CampaignResponse resp;
  resp.id = std::move(id);
  resp.ok = false;
  resp.error = std::move(what);
  resp.error_code = code;
  resp.retry_after_hint = retry_hint;
  std::promise<svc::CampaignResponse> ready;
  ready.set_value(std::move(resp));
  conn.pending.push_back(ready.get_future().share());
}

const char* NetServer::respond(Connection& conn) {
  while (!conn.pending.empty() &&
         conn.pending.front().wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready) {
    const svc::CampaignResponse& resp = conn.pending.front().get();
    write_stream_file(resp);  // the stream lands before its envelope
    if (obs::TraceSink* sink = sink_.load()) {
      obs::TraceEvent ev("net_rr");
      ev.u64("conn", conn.id).str("id", resp.id).boolean("ok", resp.ok);
      sink->write(ev);
    }
    conn.outbuf += resp.to_json();
    conn.outbuf.push_back('\n');
    count("net.responses");
    if (!resp.ok) count("net.error_responses");
    conn.pending.pop_front();
  }
  while (!conn.outbuf.empty()) {
    const ssize_t n =
        conn.socket ? ::send(conn.out_fd, conn.outbuf.data(),
                             conn.outbuf.size(), MSG_NOSIGNAL)
                    : ::write(conn.out_fd, conn.outbuf.data(),
                              conn.outbuf.size());
    if (n > 0) {
      count("net.bytes_out", static_cast<std::uint64_t>(n));
      conn.outbuf.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return "error";  // peer reset / closed under us
    }
  }
  // Slow-reader guard: un-acked bytes past the cap are a typed overflow
  // disconnect, not unbounded buffering.
  if (conn.outbuf.size() > cfg_.max_write_buffer) {
    count("net.overflow_disconnects");
    return "overflow";
  }
  return nullptr;
}

void NetServer::shutdown() {
  if (stopping_.exchange(true)) return;  // the first call tore it down
  waker_->notify();
  if (loop_.joinable()) loop_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);  // left only by a poll failure
  listen_fd_ = -1;
}

obs::CounterRegistry NetServer::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

}  // namespace rls::net
