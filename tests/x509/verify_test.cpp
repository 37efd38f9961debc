#include "x509/verify.hpp"

#include <gtest/gtest.h>

#include "pki/ca.hpp"
#include "pki/spoof.hpp"

namespace iotls::x509 {
namespace {

// A tiny PKI fixture: one trusted CA, a server leaf, and an attacker key.
class VerifyTest : public ::testing::Test {
 protected:
  VerifyTest()
      : rng_(777),
        ca_(DistinguishedName{"Unit Root CA", "Testing", "US"}, rng_),
        server_keys_(crypto::rsa_generate(rng_, 512)),
        attacker_keys_(crypto::rsa_generate(rng_, 512)) {
    leaf_ = ca_.issue_server_cert("device.example.com", server_keys_.pub);
    anchors_ = {ca_.root()};
  }

  static constexpr common::SimDate kNow{2021, 3, 1};

  /// The InvalidBasicConstraints attack payload: a legitimate *leaf*
  /// (CA=false) signs a new forged leaf. Chain order is {forged, leaf}.
  std::vector<Certificate> leaf_signed_by_leaf() {
    const auto mitm_leaf = ca_.issue_server_cert("attacker.example.com",
                                                 attacker_keys_.pub);
    x509::TbsCertificate forged_tbs;
    forged_tbs.serial = {0x66};
    forged_tbs.issuer = mitm_leaf.tbs.subject;
    forged_tbs.subject = DistinguishedName::cn("device.example.com");
    forged_tbs.subject_public_key = attacker_keys_.pub;
    forged_tbs.extensions.subject_alt_names = {"device.example.com"};
    return {issue_certificate(forged_tbs, attacker_keys_.priv), mitm_leaf};
  }

  common::Rng rng_;
  pki::CertificateAuthority ca_;
  crypto::RsaKeyPair server_keys_;
  crypto::RsaKeyPair attacker_keys_;
  Certificate leaf_;
  std::vector<Certificate> anchors_;
};

TEST_F(VerifyTest, ValidChainPasses) {
  const std::vector<Certificate> chain = {leaf_};
  const auto res = verify_chain(chain, "device.example.com", anchors_, kNow);
  EXPECT_TRUE(res.ok()) << verify_error_name(res.error);
}

TEST_F(VerifyTest, EmptyChainFails) {
  const auto res = verify_chain({}, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::EmptyChain);
}

TEST_F(VerifyTest, SelfSignedLeafIsUnknownIssuer) {
  // The NoValidation attack payload against a correct validator.
  const auto forged =
      pki::make_self_signed_leaf("device.example.com", attacker_keys_);
  const auto res =
      verify_chain({{forged}}, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::UnknownIssuer);
}

TEST_F(VerifyTest, SpoofedCaGivesBadSignature) {
  // The probe's core distinction: a chain anchored at a *spoofed* copy of a
  // trusted root fails with BadSignature, not UnknownIssuer.
  const auto spoofed = pki::make_spoofed_ca(ca_.root(), attacker_keys_);
  const auto chain = pki::forge_chain(spoofed, attacker_keys_.priv,
                                      "device.example.com",
                                      attacker_keys_.pub);
  const auto res = verify_chain(chain, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::BadSignature);
}

TEST_F(VerifyTest, UnknownCaGivesUnknownIssuer) {
  common::Rng rng(888);
  pki::CertificateAuthority other_ca(DistinguishedName::cn("Unknown Root"),
                                     rng);
  const auto chain =
      pki::forge_chain(other_ca.root(), other_ca.keypair().priv,
                       "device.example.com", attacker_keys_.pub);
  const auto res = verify_chain(chain, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::UnknownIssuer);
}

TEST_F(VerifyTest, WrongHostnameDetected) {
  const auto res = verify_chain({{leaf_}}, "other.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::HostnameMismatch);
  EXPECT_EQ(res.failed_depth, 0);
}

TEST_F(VerifyTest, WrongHostnamePassesWithoutHostnameCheck) {
  // The Amazon-family flaw (Table 7): chain validated, hostname not.
  const auto res = verify_chain({{leaf_}}, "other.example.com", anchors_, kNow,
                                VerifyPolicy::no_hostname());
  EXPECT_TRUE(res.ok());
}

TEST_F(VerifyTest, LeafUsedAsCaViolatesBasicConstraints) {
  const auto res = verify_chain(leaf_signed_by_leaf(), "device.example.com",
                                anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::InvalidBasicConstraints);
  EXPECT_EQ(res.failed_depth, 1);
}

TEST_F(VerifyTest, BasicConstraintsSkippedWhenPolicyDisabled) {
  VerifyPolicy policy;
  policy.check_basic_constraints = false;
  const auto res = verify_chain(leaf_signed_by_leaf(), "device.example.com",
                                anchors_, kNow, policy);
  EXPECT_TRUE(res.ok());
}

TEST_F(VerifyTest, NoValidationPolicyAcceptsAnything) {
  const auto forged =
      pki::make_self_signed_leaf("whatever.example.com", attacker_keys_);
  const auto res = verify_chain({{forged}}, "device.example.com", anchors_,
                                kNow, VerifyPolicy::none());
  EXPECT_TRUE(res.ok());
}

TEST_F(VerifyTest, ExpiredLeafRejected) {
  const auto expired = ca_.issue_server_cert(
      "device.example.com", server_keys_.pub,
      Validity{{2018, 1, 1}, {2019, 1, 1}});
  const auto res =
      verify_chain({{expired}}, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::Expired);
}

TEST_F(VerifyTest, NotYetValidLeafRejected) {
  const auto future = ca_.issue_server_cert(
      "device.example.com", server_keys_.pub,
      Validity{{2030, 1, 1}, {2031, 1, 1}});
  const auto res =
      verify_chain({{future}}, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::NotYetValid);
}

TEST_F(VerifyTest, IntermediateChainVerifies) {
  common::Rng rng(999);
  const auto inter_keys = crypto::rsa_generate(rng, 512);
  const auto inter = ca_.issue_intermediate(
      DistinguishedName::cn("Unit Intermediate"), inter_keys.pub);

  TbsCertificate tbs;
  tbs.serial = {0x11};
  tbs.issuer = inter.tbs.subject;
  tbs.subject = DistinguishedName::cn("deep.example.com");
  tbs.subject_public_key = server_keys_.pub;
  tbs.extensions.subject_alt_names = {"deep.example.com"};
  tbs.extensions.basic_constraints = BasicConstraints{false, {}};
  const auto leaf = issue_certificate(tbs, inter_keys.priv);

  const std::vector<Certificate> chain = {leaf, inter};
  const auto res = verify_chain(chain, "deep.example.com", anchors_, kNow);
  EXPECT_TRUE(res.ok()) << verify_error_name(res.error);
}

TEST_F(VerifyTest, PresentedRootIsIgnoredInFavourOfStore) {
  // Chain that *includes* a spoofed root: the verifier must still use the
  // store's key and fail.
  const auto spoofed = pki::make_spoofed_ca(ca_.root(), attacker_keys_);
  auto chain = pki::forge_chain(spoofed, attacker_keys_.priv,
                                "device.example.com", attacker_keys_.pub);
  ASSERT_EQ(chain.size(), 2u);
  const auto res = verify_chain(chain, "device.example.com", anchors_, kNow);
  EXPECT_NE(res.error, VerifyError::Ok);
}

TEST_F(VerifyTest, EmptyHostnameSkipsHostnameCheck) {
  const auto res = verify_chain({{leaf_}}, "", anchors_, kNow);
  EXPECT_TRUE(res.ok());
}

TEST_F(VerifyTest, ValidityIsJudgedAtNow) {
  // One chain verified before, inside and after its window: the verdict
  // follows the simulated date.
  const auto cert = ca_.issue_server_cert("device.example.com",
                                          server_keys_.pub,
                                          Validity{{2020, 1, 1}, {2022, 1, 1}});
  const std::vector<Certificate> chain = {cert};
  EXPECT_EQ(
      verify_chain(chain, "device.example.com", anchors_, {2019, 6, 1}).error,
      VerifyError::NotYetValid);
  EXPECT_TRUE(
      verify_chain(chain, "device.example.com", anchors_, {2021, 6, 1}).ok());
  EXPECT_EQ(
      verify_chain(chain, "device.example.com", anchors_, {2023, 6, 1}).error,
      VerifyError::Expired);
}

TEST_F(VerifyTest, EarlierStageWinsWhenTwoStagesFail) {
  // The stages run validity, signature, basic constraints, hostname and
  // stop at the first failure; trace_checks rebuilds every stage's status
  // from that order. Each chain here fails two stages and must report the
  // earlier one, at its depth.
  TbsCertificate bad_sig_tbs = leaf_.tbs;
  bad_sig_tbs.validity = Validity{{2018, 1, 1}, {2019, 1, 1}};
  const Certificate expired_and_badly_signed =
      issue_certificate(bad_sig_tbs, attacker_keys_.priv);

  // A presented copy of the store's root, genuine but expired: it is
  // dropped before the validity stage, so the chain still verifies.
  const Certificate expired_root = make_self_signed_root(
      ca_.root().tbs.subject, {0x01}, ca_.keypair(),
      Validity{{2000, 1, 1}, {2001, 1, 1}});

  struct Case {
    const char* name;
    std::vector<Certificate> chain;
    const char* hostname;
    VerifyError error;
    int depth;
  };
  const Case cases[] = {
      {"expired and badly signed", {expired_and_badly_signed},
       "device.example.com", VerifyError::Expired, 0},
      {"unknown issuer and wrong hostname",
       {pki::make_self_signed_leaf("device.example.com", attacker_keys_)},
       "other.example.com", VerifyError::UnknownIssuer, 0},
      {"leaf-as-CA and wrong hostname", leaf_signed_by_leaf(),
       "other.example.com", VerifyError::InvalidBasicConstraints, 1},
      {"expired presented root in the store", {leaf_, expired_root},
       "device.example.com", VerifyError::Ok, -1},
  };
  for (const Case& c : cases) {
    const auto res = verify_chain(c.chain, c.hostname, anchors_, kNow);
    EXPECT_EQ(verify_error_name(res.error), verify_error_name(c.error))
        << c.name;
    EXPECT_EQ(res.failed_depth, c.depth) << c.name;
  }
}

TEST(VerifyErrorName, AllNamesDistinct) {
  const VerifyError all[] = {
      VerifyError::Ok, VerifyError::EmptyChain, VerifyError::UnknownIssuer,
      VerifyError::BadSignature, VerifyError::Expired,
      VerifyError::NotYetValid, VerifyError::HostnameMismatch,
      VerifyError::InvalidBasicConstraints, VerifyError::Revoked,
      VerifyError::PinMismatch};
  std::set<std::string> names;
  for (const auto e : all) names.insert(verify_error_name(e));
  EXPECT_EQ(names.size(), std::size(all));
}

}  // namespace
}  // namespace iotls::x509
