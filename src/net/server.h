#ifndef BEAS_NET_SERVER_H_
#define BEAS_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "service/beas_service.h"

namespace beas {
namespace net {

/// \brief Tuning knobs for the wire server.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// Listen port; 0 = pick an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Threads draining the dispatch queue. Dispatchers call
  /// BeasService::Query directly, so concurrent in-flight requests from
  /// all connections execute in parallel and their sharded index probes
  /// batch together on the service's TaskPool (LookupBatch fan-out).
  size_t num_dispatchers = 4;
  /// Per-connection pipelining cap: a reader that has this many requests
  /// in flight blocks (stops reading the socket) until responses drain —
  /// TCP backpressure does the rest. Keeps one firehose client from
  /// monopolizing the dispatch queue.
  size_t max_inflight_per_connection = 32;
};

/// Request payload ceiling (BNW1 frame or HTTP body), below the protocol's
/// kMaxWirePayload. A request announcing more is a framing error: the
/// connection is closed.
constexpr uint32_t kMaxRequestPayload = 16u << 20;

/// \brief The network front door: a multi-threaded TCP server fronting a
/// BeasService with the BNW1 binary protocol, plus an HTTP/1.1 JSON
/// adapter auto-detected on the same port (a connection whose first bytes
/// are an HTTP method is served JSON; anything else must open with the
/// frame magic).
///
/// ## Threading
///
/// One accept thread, one reader thread per connection, and a fixed pool
/// of dispatcher threads draining a shared queue. Readers decode frames
/// and enqueue work; dispatchers execute against the service and write
/// responses (per-connection write mutex; responses interleave across
/// requests of one connection in completion order, correlated by request
/// id — that is the pipelining contract).
///
/// ## Disconnect = cancellation
///
/// Each connection owns an atomic cancelled flag that the server wires
/// into every request's QueryOptions::cancel. When the reader observes
/// EOF/error, it trips the flag: queries already executing observe it at
/// the next ExecControl poll and return their partial answer (which is
/// then discarded), queued-but-unstarted work is dropped, and admission
/// cost is released by the service's existing RAII — a disconnect can
/// never leak budget.
///
/// ## Robustness
///
/// Malformed input never tears down the server, only the offending
/// connection at worst: bad magic / lying lengths close that connection
/// (framing is unrecoverable); a well-framed but undecodable payload gets
/// a typed error response and the connection lives on.
class Server {
 public:
  /// `service` must outlive the server (it also owns the NetGauges the
  /// server increments).
  explicit Server(BeasService* service, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept/dispatch threads.
  Status Start();
  /// Stops accepting, cancels in-flight work, closes every connection,
  /// and joins all threads. Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (after Start(); useful with options.port = 0).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

 private:
  struct Connection;
  struct WorkItem;

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  /// Joins every reader whose connection has ended. Holds threads_mutex_.
  void ReapFinishedReadersLocked();
  void DispatchLoop();
  void Enqueue(WorkItem item);
  /// Executes one request and writes its response frame.
  void ServeItem(WorkItem& item);
  /// Serves a connection that opened with an HTTP method line. `prefix`
  /// holds the bytes already consumed during protocol detection.
  void ServeHttp(const std::shared_ptr<Connection>& conn, std::string prefix);
  void WriteToConnection(const std::shared_ptr<Connection>& conn,
                         const std::string& bytes);

  BeasService* service_;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;

  std::mutex threads_mutex_;
  std::thread accept_thread_;
  std::vector<std::thread> dispatchers_;
  /// One reader per open connection, by id. A reader whose connection
  /// ends appends its id to finished_readers_; the next accept joins it,
  /// so a long-lived server keeps no thread (and no stack) per closed
  /// connection. Stop() joins whatever is left.
  std::unordered_map<uint64_t, std::thread> readers_;
  std::vector<uint64_t> finished_readers_;
  uint64_t next_reader_id_ = 0;

  std::mutex conns_mutex_;
  std::vector<std::weak_ptr<Connection>> conns_;
};

}  // namespace net
}  // namespace beas

#endif  // BEAS_NET_SERVER_H_
