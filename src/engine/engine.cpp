#include "engine/engine.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace iotls::engine {

namespace {

struct EngineMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  obs::Gauge& in_flight = reg.gauge(
      "iotls_engine_in_flight",
      "TLS connections currently multiplexed by a session engine");
  obs::Gauge& in_flight_peak = reg.gauge(
      "iotls_engine_in_flight_peak",
      "High-water mark of connections multiplexed by a session engine");
  obs::Histogram& handshakes_per_tick = reg.histogram(
      "iotls_engine_handshakes_per_tick",
      "Connections retired per engine tick",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096});
  obs::Counter& ticks = reg.counter(
      "iotls_engine_ticks_total", "Engine deliver/resume rounds executed");

  static EngineMetrics& get() {
    static EngineMetrics metrics;
    return metrics;
  }
};

}  // namespace

// ---------------------------------------------------------------- Conduit

void Conduit::emit(const tls::TlsRecord& record) {
  if (closed_) {
    throw common::ProtocolError("emit on closed conduit");
  }
  // Accounting and taps fire at emission, exactly like the synchronous
  // transport — only delivery timing belongs to the engine.
  ledger_.note(true, record);
  for (const auto& tap : taps_) tap(true, record);
  outbox_.push_back(engine_->arena_acquire(record));
}

bool Conduit::record_ready() const {
  // Readable reply, or everything delivered and the stream drained (the
  // next take_record reports end-of-stream, as a drained synchronous
  // transport would).
  return inbox_pos_ < inbox_.size() || outbox_.empty();
}

std::optional<tls::TlsRecord> Conduit::take_record() {
  if (inbox_pos_ >= inbox_.size()) {
    inbox_.clear();
    inbox_pos_ = 0;
    return std::nullopt;
  }
  const std::uint32_t slot = inbox_[inbox_pos_++];
  tls::TlsRecord record = std::move(engine_->arena_[slot]);
  engine_->arena_release(slot);
  if (inbox_pos_ >= inbox_.size()) {
    inbox_.clear();
    inbox_pos_ = 0;
  }
  return record;
}

void Conduit::park(std::coroutine_handle<> handle) { waiting_ = handle; }

void Conduit::finish() {
  if (closed_) return;
  // Flush-at-close: a final flight (alert, close-notify-equivalent) must
  // still reach the server, and its replies must still be accounted, just
  // as the synchronous transport delivers every send before close().
  for (const std::uint32_t slot : outbox_) {
    const std::vector<tls::TlsRecord> replies =
        session_->on_record(engine_->arena_[slot]);
    engine_->arena_release(slot);
    for (const auto& reply : replies) {
      ledger_.note(false, reply);
      for (const auto& tap : taps_) tap(false, reply);
    }
  }
  outbox_.clear();
  for (std::size_t i = inbox_pos_; i < inbox_.size(); ++i) {
    engine_->arena_release(inbox_[i]);
  }
  inbox_.clear();
  inbox_pos_ = 0;
  closed_ = true;
  ledger_.close();
  if (session_ != nullptr) session_->on_close();
  --engine_->in_flight_;
  ++engine_->finished_this_tick_;
  if (obs::metrics_enabled()) {
    EngineMetrics::get().in_flight.set(
        static_cast<double>(engine_->in_flight_));
  }
}

// ----------------------------------------------------------------- Engine

Conduit& Engine::open_conduit(std::shared_ptr<tls::ServerSession> session) {
  auto conduit = std::make_unique<Conduit>();
  conduit->engine_ = this;
  conduit->id_ = conduits_.size();
  conduit->session_ = std::move(session);
  conduits_.push_back(std::move(conduit));
  ++in_flight_;
  if (obs::metrics_enabled()) {
    auto& metrics = EngineMetrics::get();
    metrics.in_flight.set(static_cast<double>(in_flight_));
    metrics.in_flight_peak.set_max(static_cast<double>(in_flight_));
  }
  return *conduits_.back();
}

void Engine::add_chain(common::Task<void> chain) {
  if (running_) {
    throw common::ProtocolError("add_chain on a running engine");
  }
  chains_.push_back(Chain{std::move(chain), false});
}

std::uint32_t Engine::arena_acquire(const tls::TlsRecord& record) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    arena_[slot] = record;  // reuses the retired record's payload capacity
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(arena_.size());
  arena_.push_back(record);
  if (arena_.size() > arena_peak_) arena_peak_ = arena_.size();
  return slot;
}

void Engine::arena_release(std::uint32_t slot) { free_slots_.push_back(slot); }

bool Engine::tick() {
  const obs::ProfileZone zone("engine/tick");
  ++ticks_;
  finished_this_tick_ = 0;
  bool progressed = false;

  // Phase 0 (first tick only): run each chain to its first suspension.
  for (auto& chain : chains_) {
    if (chain.started) continue;
    chain.started = true;
    chain.task.start();
    progressed = true;
  }

  // Phase A: deliver queued flights, in conduit-id order.
  for (std::size_t i = 0; i < conduits_.size(); ++i) {
    Conduit& conduit = *conduits_[i];
    if (conduit.closed_ || conduit.outbox_.empty()) continue;
    progressed = true;
    for (const std::uint32_t slot : conduit.outbox_) {
      std::vector<tls::TlsRecord> replies =
          conduit.session_->on_record(arena_[slot]);
      arena_release(slot);
      for (auto& reply : replies) {
        conduit.ledger_.note(false, reply);
        for (const auto& tap : conduit.taps_) tap(false, reply);
        conduit.inbox_.push_back(arena_acquire(reply));
      }
    }
    conduit.outbox_.clear();
  }

  // Phase B: resume parked connections whose awaited record is ready, in
  // conduit-id order. A resumed coroutine may finish its conduit, emit a
  // new flight (served next tick), or open further conduits.
  for (std::size_t i = 0; i < conduits_.size(); ++i) {
    Conduit& conduit = *conduits_[i];
    if (conduit.waiting_ == nullptr || !conduit.record_ready()) continue;
    progressed = true;
    const std::coroutine_handle<> handle =
        std::exchange(conduit.waiting_, nullptr);
    handle.resume();
  }

  if (obs::metrics_enabled()) {
    auto& metrics = EngineMetrics::get();
    metrics.ticks.inc();
    metrics.handshakes_per_tick.observe(
        static_cast<double>(finished_this_tick_));
  }
  return progressed;
}

void Engine::run() {
  if (running_) {
    throw common::ProtocolError("engine run() is not reentrant");
  }
  running_ = true;
  ticks_ = 0;
  const auto all_done = [this] {
    for (const auto& chain : chains_) {
      if (!chain.started || !chain.task.done()) return false;
    }
    return true;
  };
  while (!all_done()) {
    if (!tick()) {
      running_ = false;
      throw common::ProtocolError(
          "session engine stalled: chains pending but no conduit progress");
    }
  }
  running_ = false;
  // Surface the first failed chain's error, in registration order, after
  // every chain has settled — mirroring parallel_map's contract.
  std::exception_ptr first_error;
  for (auto& chain : chains_) {
    try {
      chain.task.take_result();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  chains_.clear();
  conduits_.clear();
  arena_.clear();
  free_slots_.clear();
  in_flight_ = 0;
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace iotls::engine
