#include "net/network.hpp"

namespace iotls::net {

void Network::register_server(const std::string& hostname,
                              SessionFactory factory) {
  servers_[hostname] = std::move(factory);
}

bool Network::has_server(const std::string& hostname) const {
  return servers_.count(hostname) > 0;
}

void Network::set_interceptor(Interceptor interceptor) {
  interceptor_ = std::move(interceptor);
}

void Network::clear_interceptor() { interceptor_ = nullptr; }

std::shared_ptr<tls::ServerSession> Network::resolve_session(
    const std::string& hostname) {
  const auto it = servers_.find(hostname);
  SessionFactory real_factory;
  if (it != servers_.end()) {
    real_factory = it->second;
  } else {
    real_factory = [](const std::string& host)
        -> std::shared_ptr<tls::ServerSession> {
      throw common::ProtocolError("no server registered for " + host);
    };
  }

  std::shared_ptr<tls::ServerSession> session;
  if (interceptor_) {
    session = interceptor_(hostname, real_factory);
  } else {
    session = real_factory(hostname);
  }
  if (session == nullptr) {
    throw common::ProtocolError("no session for " + hostname);
  }
  return session;
}

std::unique_ptr<obs::Span> Network::make_span(const std::string& hostname,
                                              const std::string& device,
                                              common::Month month) {
  if (trace_ == nullptr || !trace_->enabled()) return nullptr;
  auto span = std::make_unique<obs::Span>(
      trace_->start_span("conn:" + device + ":" + hostname));
  span->set_attr("device", device);
  span->set_attr("destination", hostname);
  span->set_attr("month", month.str());
  if (interceptor_) span->set_attr("intercepted", "true");
  return span;
}

Network::Connection Network::connect(const std::string& hostname,
                                     const std::string& device,
                                     common::Month month) {
  Connection conn;
  conn.session = resolve_session(hostname);
  conn.observer = std::make_shared<ConnectionObserver>(device, hostname,
                                                       month);
  conn.transport = std::make_unique<tls::Transport>(conn.session);
  conn.transport->add_tap(conn.observer->tap());
  conn.span = make_span(hostname, device, month);
  if (conn.span != nullptr) conn.transport->set_span(conn.span.get());
  return conn;
}

void Network::finish(Connection& connection) {
  const HandshakeRecord& record = connection.observer->record();
  std::unique_ptr<obs::Span>& span = connection.span;
  capture_.add(record);
  if (span != nullptr && span->enabled()) {
    std::vector<obs::Attr> attrs{
        {"handshake_complete", record.handshake_complete ? "true" : "false"},
        {"app_data", record.application_data_seen ? "true" : "false"},
    };
    if (record.saw_fatal_alert()) {
      attrs.emplace_back(
          "first_fatal_alert_dir",
          alert_direction_name(record.first_fatal_alert_direction));
      attrs.emplace_back("first_fatal_alert_ordinal",
                         std::to_string(record.first_fatal_alert_ordinal));
    }
    span->event("capture", std::move(attrs));
    if (trace_ != nullptr) trace_->add(std::move(*span));
    span.reset();
  }
}

}  // namespace iotls::net
