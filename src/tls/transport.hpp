// Single-threaded, deterministic transport model.
//
// A client drives a ServerSession directly: every record the client sends is
// delivered synchronously and the session's reply records are queued for the
// client to read. The gateway capture and the interceptor both slot in as
// taps/wrappers around this interface — equivalent to the paper's on-path
// vantage point, with no threads and perfect reproducibility.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "tls/record.hpp"

namespace iotls::tls {

/// Server side of one TLS connection (a real server, or an interceptor).
class ServerSession {
 public:
  virtual ~ServerSession() = default;

  /// Deliver one record from the client; returns records to send back.
  virtual std::vector<TlsRecord> on_record(const TlsRecord& record) = 0;

  /// The client closed the transport (normally or after a failure).
  virtual void on_close() {}
};

/// Client-side handle for one connection.
class Transport {
 public:
  /// Observation hook: (client_to_server, record). Multiple taps compose.
  using Tap = std::function<void(bool client_to_server, const TlsRecord&)>;

  explicit Transport(std::shared_ptr<ServerSession> session)
      : session_(std::move(session)) {}

  void add_tap(Tap tap) { taps_.push_back(std::move(tap)); }

  /// Attach the connection's trace span (non-owning; may be null). At
  /// TraceLevel::Full every record in both directions becomes a `record`
  /// event; at any enabled level close() emits a `close` event with the
  /// record/byte totals.
  void set_span(obs::Span* span) { span_ = span; }

  /// Send a record; the session's replies become readable via receive().
  void send(const TlsRecord& record);

  /// Next queued record from the server, if any. Consumed records are
  /// compacted away, so a long-lived connection retains only its unread
  /// backlog, not every record it ever exchanged.
  std::optional<TlsRecord> receive();

  [[nodiscard]] bool has_pending() const { return inbox_pos_ < inbox_.size(); }

  /// Internal storage length of the inbox (read + unread records still
  /// resident). Exposed for the bounded-memory regression test; stays at
  /// most `unread + compaction threshold`.
  [[nodiscard]] std::size_t inbox_retained() const { return inbox_.size(); }

  /// Close the connection: per-connection histograms, a `close` span
  /// event with the record/byte totals, and the session's on_close().
  /// Idempotent.
  void close();

 private:
  /// Account one record on the wire (metrics counters; at TraceLevel::Full
  /// a `record` span event with direction/type/bytes/message).
  void note(bool client_to_server, const TlsRecord& record);

  std::shared_ptr<ServerSession> session_;
  std::vector<TlsRecord> inbox_;
  std::size_t inbox_pos_ = 0;
  std::vector<Tap> taps_;
  bool closed_ = false;
  obs::Span* span_ = nullptr;
  std::size_t records_to_server_ = 0;
  std::size_t records_to_client_ = 0;
  std::size_t bytes_to_server_ = 0;
  std::size_t bytes_to_client_ = 0;
};

}  // namespace iotls::tls
