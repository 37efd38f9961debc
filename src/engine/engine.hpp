// Event-driven batched session engine.
//
// One Engine multiplexes thousands of in-flight TLS connections on a
// single thread. Each connection is a coroutine (`common::Task`) written
// against the `tls::RecordIo` seam; the engine's implementation of that
// seam, `Conduit`, queues client flights in a flat per-engine record arena
// instead of per-connection inbox vectors, and parks the coroutine until
// the next tick delivers them.
//
// A tick has two phases, both in conduit-id order (ids are handed out in
// creation order, so the schedule is a pure function of the inputs —
// determinism does not depend on timing):
//
//   Phase A (deliver): every queued client->server record is handed to its
//     server session; replies land in the conduit's arena inbox. The crypto
//     those deliveries run is the same as on the synchronous path: kernel
//     contexts live on the keys and DH groups (crypto/mont64.hpp), not in
//     the tick, so interleaving buys no crypto reuse of its own.
//   Phase B (resume): every parked coroutine whose awaited record is ready
//     resumes, typically emitting its next flight (served next tick).
//
// The schedule is deadlock-free by construction: the RecordIo contract
// says a coroutine only parks when it has an undelivered flight queued, so
// a tick that delivers nothing and resumes nothing means every chain is
// complete. Output parity: the crypto is the synchronous path's own,
// the shared RecordLedger emits identical span/metric sequences per
// connection, and drivers merge per-device results in catalog order — so
// tables, traces, and store artifacts are byte-identical to the
// synchronous path (tests/engine/ and bench_engine verify this).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/task.hpp"
#include "tls/record_io.hpp"
#include "tls/record_ledger.hpp"
#include "tls/transport.hpp"

namespace iotls::engine {

class Engine;

/// Arena-backed RecordIo for one connection multiplexed by an Engine.
/// Created via Engine::open_conduit from inside a chain task.
class Conduit final : public tls::RecordIo {
 public:
  using Tap = tls::Transport::Tap;

  void add_tap(Tap tap) { taps_.push_back(std::move(tap)); }

  void emit(const tls::TlsRecord& record) override;
  [[nodiscard]] bool record_ready() const override;
  std::optional<tls::TlsRecord> take_record() override;
  void park(std::coroutine_handle<> handle) override;
  void finish() override;
  void attach_span(obs::Span* span) override { ledger_.set_span(span); }

 private:
  friend class Engine;

  Engine* engine_ = nullptr;
  std::size_t id_ = 0;
  std::shared_ptr<tls::ServerSession> session_;
  std::vector<std::uint32_t> outbox_;  // arena slots, client->server
  std::vector<std::uint32_t> inbox_;   // arena slots, server->client
  std::size_t inbox_pos_ = 0;
  std::vector<Tap> taps_;
  tls::RecordLedger ledger_;
  std::coroutine_handle<> waiting_;
  bool closed_ = false;
};

/// Single-threaded readiness loop over conduits and chain tasks. A chain
/// is a Task<void> that opens conduits (sequentially or not) and completes
/// when its work is done — e.g. one device's whole connection schedule.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Create a conduit for one connection against `session`. Valid while
  /// the engine lives; typically called inside a chain task immediately
  /// before `co_await client.connect_task(conduit, ...)`.
  Conduit& open_conduit(std::shared_ptr<tls::ServerSession> session);

  /// Register a chain; ownership transfers to the engine. Chains start
  /// running (to their first suspension) when run() is called.
  void add_chain(common::Task<void> chain);

  /// Drive all chains to completion. Rethrows the first failed chain's
  /// exception (in registration order) after every chain has settled.
  void run();

  /// Connections currently open (conduits created and not yet finished).
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  /// Ticks executed by the last run().
  [[nodiscard]] std::size_t ticks() const { return ticks_; }

  /// High-water arena occupancy (records resident at once) across the
  /// engine's lifetime — stays near the per-tick flight volume, not the
  /// total record count, when slot recycling works.
  [[nodiscard]] std::size_t arena_peak() const { return arena_peak_; }

 private:
  friend class Conduit;

  struct Chain {
    common::Task<void> task;
    bool started = false;
  };

  /// One deliver/resume round; returns whether anything progressed.
  bool tick();

  std::uint32_t arena_acquire(const tls::TlsRecord& record);
  void arena_release(std::uint32_t slot);

  std::deque<std::unique_ptr<Conduit>> conduits_;
  std::vector<Chain> chains_;
  std::vector<tls::TlsRecord> arena_;   // flat record storage, all conduits
  std::vector<std::uint32_t> free_slots_;
  std::size_t arena_peak_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t ticks_ = 0;
  std::size_t finished_this_tick_ = 0;
  bool running_ = false;
};

}  // namespace iotls::engine
