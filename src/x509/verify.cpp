#include "x509/verify.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"

namespace iotls::x509 {

std::string verify_error_name(VerifyError err) {
  switch (err) {
    case VerifyError::Ok: return "ok";
    case VerifyError::EmptyChain: return "empty_chain";
    case VerifyError::UnknownIssuer: return "unknown_issuer";
    case VerifyError::BadSignature: return "bad_signature";
    case VerifyError::Expired: return "expired";
    case VerifyError::NotYetValid: return "not_yet_valid";
    case VerifyError::HostnameMismatch: return "hostname_mismatch";
    case VerifyError::InvalidBasicConstraints:
      return "invalid_basic_constraints";
    case VerifyError::Revoked: return "revoked";
    case VerifyError::PinMismatch: return "pin_mismatch";
  }
  return "unknown";
}

std::string verify_check_name(VerifyError err) {
  switch (err) {
    case VerifyError::Ok: return "none";
    case VerifyError::EmptyChain: return "chain_present";
    case VerifyError::NotYetValid:
    case VerifyError::Expired: return "validity";
    case VerifyError::UnknownIssuer:
    case VerifyError::BadSignature: return "signature";
    case VerifyError::InvalidBasicConstraints: return "basic_constraints";
    case VerifyError::HostnameMismatch: return "hostname";
    case VerifyError::Revoked: return "revocation";
    case VerifyError::PinMismatch: return "pinning";
  }
  return "unknown";
}

namespace {

const Certificate* find_anchor(std::span<const Certificate> anchors,
                               const DistinguishedName& subject) {
  const auto it =
      std::find_if(anchors.begin(), anchors.end(), [&](const Certificate& c) {
        return c.tbs.subject == subject;
      });
  return it == anchors.end() ? nullptr : &*it;
}

VerifyResult verify_impl(std::span<const Certificate> chain,
                         std::string_view hostname,
                         std::span<const Certificate> trust_anchors,
                         common::SimDate now, const VerifyPolicy& policy) {
  if (!policy.validate) return VerifyResult{};
  if (chain.empty()) return VerifyResult{VerifyError::EmptyChain, -1};

  // A presented self-signed root the store also holds is dropped before
  // any stage runs, so the certificate below it verifies under the
  // store's key, never the presented one.
  std::span<const Certificate> certs = chain;
  if (certs.size() > 1 && certs.back().is_self_signed() &&
      find_anchor(trust_anchors, certs.back().tbs.subject)) {
    certs = certs.first(certs.size() - 1);
  }

  // The stages run in a fixed order and stop at the first failure;
  // trace_checks rebuilds every stage's status from that order.
  if (policy.check_validity) {
    for (std::size_t i = 0; i < certs.size(); ++i) {
      if (now < certs[i].tbs.validity.not_before) {
        return VerifyResult{VerifyError::NotYetValid, static_cast<int>(i)};
      }
      if (now > certs[i].tbs.validity.not_after) {
        return VerifyResult{VerifyError::Expired, static_cast<int>(i)};
      }
    }
  }

  if (policy.check_signature) {
    for (std::size_t i = 0; i < certs.size(); ++i) {
      const Certificate& cert = certs[i];
      const Certificate* issuer =
          i + 1 < certs.size() && certs[i + 1].tbs.subject == cert.tbs.issuer
              ? &certs[i + 1]
              : find_anchor(trust_anchors, cert.tbs.issuer);
      if (issuer == nullptr) {
        return VerifyResult{VerifyError::UnknownIssuer, static_cast<int>(i)};
      }
      if (!crypto::rsa_verify(issuer->tbs.subject_public_key,
                              cert.tbs.serialize(), cert.signature)) {
        return VerifyResult{VerifyError::BadSignature, static_cast<int>(i)};
      }
    }
  }

  if (policy.check_basic_constraints) {
    // Every certificate that issues another one in this chain must be a CA.
    for (std::size_t i = 1; i < certs.size(); ++i) {
      const auto& bc = certs[i].tbs.extensions.basic_constraints;
      if (!bc.has_value() || !bc->is_ca) {
        return VerifyResult{VerifyError::InvalidBasicConstraints,
                            static_cast<int>(i)};
      }
      if (bc->path_len_constraint.has_value() &&
          static_cast<int>(i) - 1 > *bc->path_len_constraint) {
        return VerifyResult{VerifyError::InvalidBasicConstraints,
                            static_cast<int>(i)};
      }
    }
  }

  if (policy.check_hostname && !hostname.empty()) {
    if (!certs[0].matches_hostname(hostname)) {
      return VerifyResult{VerifyError::HostnameMismatch, 0};
    }
  }

  return VerifyResult{};
}

struct VerifyMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  obs::Counter& result(const std::string& name) {
    return reg.counter("iotls_x509_verifications_total",
                       "Chain verifications by result", "result", name);
  }

  static VerifyMetrics& get() {
    static VerifyMetrics metrics;
    return metrics;
  }
};

/// Emit one `x509_check` event per pipeline stage, in the order the
/// verifier runs them, reconstructed from the final result (the pipeline
/// is short-circuiting, so the result pins down every stage's status).
void trace_checks(obs::Span& span, const VerifyPolicy& policy,
                  const VerifyResult& result) {
  struct Stage {
    const char* name;
    bool enabled;
  };
  const Stage stages[] = {
      {"chain_present", true},
      {"validity", policy.check_validity},
      {"signature", policy.check_signature},
      {"basic_constraints", policy.check_basic_constraints},
      {"hostname", policy.check_hostname},
  };
  const std::string failing = verify_check_name(result.error);
  bool reached = true;
  for (const auto& stage : stages) {
    std::string status;
    if (!stage.enabled) {
      status = "skipped";
    } else if (!reached) {
      status = "not_reached";
    } else if (!result.ok() && failing == stage.name) {
      status = "fail";
      reached = false;
    } else {
      status = "pass";
    }
    std::vector<obs::Attr> attrs{{"check", stage.name}, {"status", status}};
    if (status == "fail") {
      attrs.emplace_back("error", verify_error_name(result.error));
      attrs.emplace_back("depth", std::to_string(result.failed_depth));
    }
    span.event("x509_check", std::move(attrs));
  }
}

}  // namespace

VerifyResult verify_chain(std::span<const Certificate> chain,
                          std::string_view hostname,
                          std::span<const Certificate> trust_anchors,
                          common::SimDate now, const VerifyPolicy& policy,
                          obs::Span* span) {
  const VerifyResult result =
      verify_impl(chain, hostname, trust_anchors, now, policy);
  if (obs::metrics_enabled()) {
    VerifyMetrics::get().result(verify_error_name(result.error)).inc();
  }
  if (span != nullptr && span->full() && policy.validate) {
    trace_checks(*span, policy, result);
  }
  return result;
}

}  // namespace iotls::x509
