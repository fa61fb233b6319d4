#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "net/wire_json.h"

namespace beas {
namespace net {

namespace {

/// recv() exactly `n` bytes. Returns n on success, 0 on clean EOF before
/// any byte, -1 on error/EOF mid-read.
ssize_t ReadExact(int fd, uint8_t* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) return got == 0 ? 0 : -1;
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(n);
}

const char* HttpReason(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 409: return "Conflict";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "OK";
  }
}

bool LooksLikeHttp(const uint8_t* p) {
  static const char* kMethods[] = {"GET ", "POST", "PUT ", "HEAD",
                                   "DELE", "OPTI", "PATC"};
  for (const char* m : kMethods) {
    if (std::memcmp(p, m, 4) == 0) return true;
  }
  return false;
}

}  // namespace

struct Server::Connection {
  int fd = -1;
  NetGauges* gauges = nullptr;
  /// Tripped on client disconnect / shutdown; wired into every request's
  /// QueryOptions::cancel, so a dead client's queries self-terminate.
  std::atomic<bool> cancelled{false};
  /// Pipelining backpressure: requests decoded but not yet answered.
  std::mutex inflight_mutex;
  std::condition_variable inflight_cv;
  size_t inflight = 0;
  /// Serializes response frames (dispatchers finish in any order).
  std::mutex write_mutex;

  ~Connection() {
    if (fd >= 0) ::close(fd);
    if (gauges != nullptr) {
      gauges->connections_open.fetch_sub(1, std::memory_order_relaxed);
    }
  }
};

struct Server::WorkItem {
  std::shared_ptr<Connection> conn;
  uint32_t request_id = 0;
  FrameKind kind = FrameKind::kPing;
  QueryRequest query;
  InsertRequest insert;
};

Server::Server(BeasService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  if (options_.num_dispatchers == 0) options_.num_dispatchers = 1;
  if (options_.max_inflight_per_connection == 0) {
    options_.max_inflight_per_connection = 1;
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::IoError("bind " + options_.host + ":" +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) < 0) {
    Status st = Status::IoError("listen: " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  for (size_t i = 0; i < options_.num_dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // A second Stop() (e.g. destructor after explicit Stop) still joins
    // whatever the first left running — joins below are idempotent via
    // joinable() checks.
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& weak : conns_) {
      if (std::shared_ptr<Connection> conn = weak.lock()) {
        conn->cancelled.store(true, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
        conn->inflight_cv.notify_all();
      }
    }
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Join outside the lock: a reader takes it to report its own end.
    std::unordered_map<uint64_t, std::thread> readers;
    {
      std::lock_guard<std::mutex> lock(threads_mutex_);
      readers.swap(readers_);
      finished_readers_.clear();
    }
    for (auto& [id, t] : readers) t.join();
  }
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();
  {
    // Drop whatever never ran; the shared_ptrs close the sockets.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down (Stop) or broken
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->gauges = service_->net_gauges();
    conn->gauges->connections_open.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      // Compact dead entries so a long-lived server doesn't accumulate
      // one weak_ptr per historical connection.
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const std::weak_ptr<Connection>& w) {
                                    return w.expired();
                                  }),
                   conns_.end());
      conns_.push_back(conn);
    }
    std::lock_guard<std::mutex> lock(threads_mutex_);
    ReapFinishedReadersLocked();
    // Spawned under the lock, so the reader's end-of-connection report
    // cannot precede its own entry.
    uint64_t id = next_reader_id_++;
    readers_.emplace(id, std::thread([this, id, conn]() mutable {
                       ReaderLoop(std::move(conn));
                       std::lock_guard<std::mutex> done(threads_mutex_);
                       finished_readers_.push_back(id);
                     }));
  }
}

void Server::ReapFinishedReadersLocked() {
  for (uint64_t id : finished_readers_) {
    auto it = readers_.find(id);
    if (it == readers_.end()) continue;
    it->second.join();
    readers_.erase(it);
  }
  finished_readers_.clear();
}

void Server::Enqueue(WorkItem item) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
}

void Server::DispatchLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    ServeItem(item);
  }
}

void Server::ServeItem(WorkItem& item) {
  const std::shared_ptr<Connection>& conn = item.conn;
  if (!conn->cancelled.load(std::memory_order_relaxed)) {
    WireResponse response;
    switch (item.kind) {
      case FrameKind::kQueryRequest: {
        QueryRequest request = item.query;
        // Disconnect = cancellation: the engine polls this token at every
        // ExecControl step, so a dead client's query stops mid-chain and
        // its admission cost is released by the service's RAII.
        request.options.cancel = &conn->cancelled;
        Result<QueryResponse> result = service_->Query(request);
        if (result.ok()) {
          if (result->result_cache_hit) {
            conn->gauges->result_cache_hits.fetch_add(
                1, std::memory_order_relaxed);
          }
          response.response = std::move(*result);
        } else {
          response.status = result.status();
        }
        break;
      }
      case FrameKind::kInsertRequest: {
        size_t n = item.insert.rows.size();
        Status st = service_->InsertBatch(item.insert.table,
                                          std::move(item.insert.rows));
        if (st.ok()) response.rows_inserted = n;
        response.status = std::move(st);
        break;
      }
      default:
        response.status = Status::Internal("unexpected work item kind");
    }
    if (!conn->cancelled.load(std::memory_order_relaxed)) {
      WriteToConnection(conn, EncodeResponseFrame(item.request_id, response));
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn->inflight_mutex);
    --conn->inflight;
  }
  conn->inflight_cv.notify_one();
}

void Server::WriteToConnection(const std::shared_ptr<Connection>& conn,
                               const std::string& bytes) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  // Test hook: `net_write_response=sleep(MS)@*` turns this server into a
  // slow writer, forcing the per-connection inflight cap to exercise the
  // reader's backpressure path deterministically.
  fail::Point("net_write_response");
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t r = ::send(conn->fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      // Client went away mid-write; its in-flight queries should stop.
      conn->cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    sent += static_cast<size_t>(r);
  }
  conn->gauges->bytes_out_total.fetch_add(sent, std::memory_order_relaxed);
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  uint8_t header[kFrameHeaderSize];
  // Protocol detection: the first four bytes are either the frame magic
  // or an HTTP method. Anything else is garbage — answer with one typed
  // error frame (best effort) and drop the connection; the server and
  // every other connection are unaffected.
  ssize_t r = ReadExact(conn->fd, header, 4);
  if (r != 4) {
    conn->cancelled.store(true, std::memory_order_relaxed);
    return;
  }
  conn->gauges->bytes_in_total.fetch_add(4, std::memory_order_relaxed);
  if (LooksLikeHttp(header)) {
    ServeHttp(conn, std::string(reinterpret_cast<char*>(header), 4));
    conn->cancelled.store(true, std::memory_order_relaxed);
    return;
  }
  bool first = true;
  std::vector<uint8_t> payload;
  for (;;) {
    size_t need = first ? kFrameHeaderSize - 4 : kFrameHeaderSize;
    uint8_t* dst = first ? header + 4 : header;
    r = ReadExact(conn->fd, dst, need);
    if (r != static_cast<ssize_t>(need)) break;  // EOF or torn header
    conn->gauges->bytes_in_total.fetch_add(need, std::memory_order_relaxed);
    first = false;
    Result<FrameHeader> decoded = DecodeFrameHeader(header, kFrameHeaderSize);
    if (!decoded.ok()) {
      // Bad magic / lying length: framing is unrecoverable. Tell the
      // client why, then hang up.
      WireResponse err;
      err.status = decoded.status();
      WriteToConnection(conn, EncodeResponseFrame(0, err));
      break;
    }
    FrameHeader frame = *decoded;
    if (frame.payload_len > kMaxRequestPayload) {
      WireResponse err;
      err.status = Status::InvalidArgument(
          "frame payload of " + std::to_string(frame.payload_len) +
          " bytes exceeds this server's limit of " +
          std::to_string(kMaxRequestPayload));
      WriteToConnection(conn, EncodeResponseFrame(frame.request_id, err));
      break;
    }
    payload.resize(frame.payload_len);
    if (frame.payload_len > 0) {
      r = ReadExact(conn->fd, payload.data(), frame.payload_len);
      if (r != static_cast<ssize_t>(frame.payload_len)) break;  // truncated
      conn->gauges->bytes_in_total.fetch_add(frame.payload_len,
                                             std::memory_order_relaxed);
    }

    if (frame.kind == FrameKind::kPing) {
      conn->gauges->requests_total.fetch_add(1, std::memory_order_relaxed);
      WireResponse pong;
      WriteToConnection(conn, EncodeResponseFrame(frame.request_id, pong));
      continue;
    }

    WorkItem item;
    item.conn = conn;
    item.request_id = frame.request_id;
    item.kind = frame.kind;
    if (frame.kind == FrameKind::kQueryRequest) {
      Result<QueryRequest> request =
          DecodeQueryRequest(payload.data(), payload.size());
      if (!request.ok()) {
        // Framing was fine, only this payload is bad: typed error, keep
        // the connection.
        WireResponse err;
        err.status = request.status();
        WriteToConnection(conn, EncodeResponseFrame(frame.request_id, err));
        continue;
      }
      item.query = std::move(*request);
    } else if (frame.kind == FrameKind::kInsertRequest) {
      Result<InsertRequest> request =
          DecodeInsertRequest(payload.data(), payload.size());
      if (!request.ok()) {
        WireResponse err;
        err.status = request.status();
        WriteToConnection(conn, EncodeResponseFrame(frame.request_id, err));
        continue;
      }
      item.insert = std::move(*request);
    } else {
      WireResponse err;
      err.status =
          Status::InvalidArgument("clients may not send response frames");
      WriteToConnection(conn, EncodeResponseFrame(frame.request_id, err));
      continue;
    }
    conn->gauges->requests_total.fetch_add(1, std::memory_order_relaxed);

    // Pipelining backpressure: stop reading the socket while this
    // connection already has a full window in flight.
    {
      std::unique_lock<std::mutex> lock(conn->inflight_mutex);
      conn->inflight_cv.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               conn->cancelled.load(std::memory_order_relaxed) ||
               conn->inflight < options_.max_inflight_per_connection;
      });
      if (stopping_.load(std::memory_order_relaxed) ||
          conn->cancelled.load(std::memory_order_relaxed)) {
        return;
      }
      ++conn->inflight;
    }
    Enqueue(std::move(item));
  }
  // EOF / torn frame: everything this connection still has in flight is
  // now pointless — trip the cancel token so running queries stop early.
  conn->cancelled.store(true, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// HTTP/1.1 JSON adapter: the curl-able face of the same service. One
// request at a time per connection (no pipelining); keep-alive honored.
// ---------------------------------------------------------------------------

void Server::ServeHttp(const std::shared_ptr<Connection>& conn,
                       std::string buffered) {
  constexpr size_t kMaxHeaderBytes = 64 * 1024;
  for (;;) {
    // Accumulate until the blank line ending the header block.
    size_t header_end;
    while ((header_end = buffered.find("\r\n\r\n")) == std::string::npos) {
      if (buffered.size() > kMaxHeaderBytes) return;
      char chunk[4096];
      ssize_t r = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (r <= 0) return;
      conn->gauges->bytes_in_total.fetch_add(static_cast<uint64_t>(r),
                                             std::memory_order_relaxed);
      buffered.append(chunk, static_cast<size_t>(r));
    }
    std::string head = buffered.substr(0, header_end);
    buffered.erase(0, header_end + 4);

    // Request line.
    size_t line_end = head.find("\r\n");
    std::string request_line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    size_t sp1 = request_line.find(' ');
    size_t sp2 = request_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) return;
    std::string method = request_line.substr(0, sp1);
    std::string path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);

    // Headers we care about.
    size_t content_length = 0;
    bool keep_alive = true;
    size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
    while (pos < head.size()) {
      size_t eol = head.find("\r\n", pos);
      std::string line = head.substr(pos, eol == std::string::npos
                                              ? std::string::npos
                                              : eol - pos);
      pos = eol == std::string::npos ? head.size() : eol + 2;
      size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string key = line.substr(0, colon);
      for (char& c : key) c = static_cast<char>(std::tolower(
                              static_cast<unsigned char>(c)));
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      if (key == "content-length") {
        content_length = static_cast<size_t>(
            std::strtoull(value.c_str(), nullptr, 10));
      } else if (key == "connection") {
        for (char& c : value) c = static_cast<char>(std::tolower(
                                  static_cast<unsigned char>(c)));
        keep_alive = value != "close";
      }
    }
    if (content_length > kMaxRequestPayload) return;
    while (buffered.size() < content_length) {
      char chunk[4096];
      ssize_t r = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (r <= 0) return;
      conn->gauges->bytes_in_total.fetch_add(static_cast<uint64_t>(r),
                                             std::memory_order_relaxed);
      buffered.append(chunk, static_cast<size_t>(r));
    }
    std::string body = buffered.substr(0, content_length);
    buffered.erase(0, content_length);

    conn->gauges->requests_total.fetch_add(1, std::memory_order_relaxed);
    WireResponse response;
    if (path == "/ping" || path == "/healthz") {
      // Empty OK envelope; renders as {"status":"OK",...}.
    } else if (method == "POST" && path == "/query") {
      Result<Json> doc = ParseJson(body);
      if (!doc.ok()) {
        response.status = doc.status();
      } else {
        QueryRequest request;
        const Json* sql = doc->Get("sql");
        if (sql == nullptr || !sql->is_string()) {
          response.status =
              Status::InvalidArgument("body must carry a \"sql\" string");
        } else {
          request.sql = sql->str;
          if (const Json* mode = doc->Get("mode")) {
            Result<QueryMode> parsed = ParseQueryMode(mode->str);
            if (!parsed.ok()) {
              response.status = parsed.status();
            } else {
              request.mode = *parsed;
            }
          }
          if (const Json* tenant = doc->Get("tenant")) {
            request.tenant = tenant->str;
          }
          if (const Json* v = doc->Get("timeout_millis")) {
            request.options.timeout_millis = v->inum;
          }
          if (const Json* v = doc->Get("fetch_budget")) {
            request.options.fetch_budget = static_cast<uint64_t>(v->inum);
          }
          if (const Json* v = doc->Get("min_eta")) {
            request.options.min_eta = v->num;
          }
          if (const Json* v = doc->Get("approx_budget")) {
            request.approx_budget = static_cast<uint64_t>(v->inum);
          }
          if (response.status.ok()) {
            request.options.cancel = &conn->cancelled;
            Result<QueryResponse> result = service_->Query(request);
            if (result.ok()) {
              response.response = std::move(*result);
            } else {
              response.status = result.status();
            }
          }
        }
      }
    } else if (method == "POST" && path == "/insert") {
      Result<Json> doc = ParseJson(body);
      const Json* table = doc.ok() ? doc->Get("table") : nullptr;
      const Json* rows = doc.ok() ? doc->Get("rows") : nullptr;
      if (!doc.ok()) {
        response.status = doc.status();
      } else if (table == nullptr || !table->is_string() || rows == nullptr ||
                 !rows->is_array()) {
        response.status = Status::InvalidArgument(
            "body must carry \"table\" (string) and \"rows\" (array of "
            "arrays)");
      } else {
        std::vector<Row> batch;
        batch.reserve(rows->items.size());
        Status st;
        for (const Json& row_json : rows->items) {
          if (!row_json.is_array()) {
            st = Status::InvalidArgument("each row must be an array");
            break;
          }
          Row row;
          row.reserve(row_json.items.size());
          for (const Json& cell : row_json.items) {
            Result<Value> v = JsonToValue(cell);
            if (!v.ok()) {
              st = v.status();
              break;
            }
            row.push_back(std::move(*v));
          }
          if (!st.ok()) break;
          batch.push_back(std::move(row));
        }
        if (st.ok()) {
          size_t n = batch.size();
          st = service_->InsertBatch(table->str, std::move(batch));
          if (st.ok()) response.rows_inserted = n;
        }
        response.status = std::move(st);
      }
    } else {
      response.status =
          Status::NotFound("no such endpoint: " + method + " " + path);
    }

    std::string json = RenderResponseJson(response);
    int code = StatusCodeToHttp(response.status.code());
    std::string reply = "HTTP/1.1 " + std::to_string(code) + " " +
                        HttpReason(code) +
                        "\r\nContent-Type: application/json\r\n"
                        "Content-Length: " +
                        std::to_string(json.size()) + "\r\nConnection: " +
                        (keep_alive ? "keep-alive" : "close") + "\r\n\r\n" +
                        json;
    WriteToConnection(conn, reply);
    if (!keep_alive || conn->cancelled.load(std::memory_order_relaxed) ||
        stopping_.load(std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace net
}  // namespace beas
