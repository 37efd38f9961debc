// Fleet expansion model unit behavior: pure per-index expansion, disjoint
// uid sets across seeds, wire labels, epoch selection, window clamping and
// the shard-name helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "fleet/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/synth.hpp"

namespace iotls::fleet {
namespace {

FleetOptions small_options() {
  FleetOptions options;
  options.seed = 77;
  options.instances = 5'000;
  options.devices = {"Yi Camera", "Amazon Echo Dot"};
  return options;
}

TEST(FleetModel, InstanceIsAPureFunctionOfSeedAndIndex) {
  const FleetModel a(small_options());
  const FleetModel b(small_options());
  for (std::uint64_t index : {0ull, 1ull, 999ull, 4'999ull}) {
    const InstanceSpec x = a.instance(index);
    const InstanceSpec y = b.instance(index);
    EXPECT_EQ(x.uid, y.uid);
    EXPECT_EQ(x.model, y.model);
    EXPECT_EQ(x.region, y.region);
    EXPECT_EQ(x.skew_months, y.skew_months);
    EXPECT_EQ(x.drift_bucket, y.drift_bucket);
    EXPECT_EQ(x.birth, y.birth);
    EXPECT_EQ(x.death, y.death);
    EXPECT_EQ(x.rekey_month, y.rekey_month);
  }
}

TEST(FleetModel, ExpansionIsOrderIndependent) {
  const FleetModel fleet(small_options());
  const InstanceSpec late_first = fleet.instance(4'000);
  (void)fleet.instance(17);
  (void)fleet.instance(3);
  const InstanceSpec late_again = fleet.instance(4'000);
  EXPECT_EQ(late_first.uid, late_again.uid);
  EXPECT_EQ(late_first.birth, late_again.birth);
}

TEST(FleetModel, DifferentSeedsGiveDisjointUids) {
  FleetOptions a = small_options();
  FleetOptions b = small_options();
  b.seed = a.seed + 1;
  const FleetModel fleet_a(a);
  const FleetModel fleet_b(b);
  std::set<std::uint64_t> uids;
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    uids.insert(fleet_a.instance(i).uid);
    uids.insert(fleet_b.instance(i).uid);
  }
  EXPECT_EQ(uids.size(), 4'000u);
}

TEST(FleetModel, InstancesStayInsideTheirModelWindow) {
  const FleetModel fleet(small_options());
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    const InstanceSpec spec = fleet.instance(i);
    const auto [first, last] = fleet.window(spec.model);
    if (spec.death < spec.birth) continue;  // empty model window
    EXPECT_GE(spec.birth, first);
    EXPECT_LE(spec.death, last);
    if (spec.rekey_month >= 0) {
      EXPECT_GE(spec.rekey_month, spec.birth);
      EXPECT_LE(spec.rekey_month, spec.death);
    }
    EXPECT_GE(spec.drift_bucket, 0);
    EXPECT_LT(static_cast<std::size_t>(spec.drift_bucket), kDriftDays.size());
  }
}

TEST(FleetModel, LabelEncodesModelRegionAgeUidAndRekey) {
  const FleetModel fleet(small_options());
  // Find an instance that re-keys so both label forms are exercised.
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    const InstanceSpec spec = fleet.instance(i);
    if (spec.rekey_month < 0 || spec.death < spec.birth) continue;
    const std::string before =
        fleet.label(spec, common::kStudyStart.plus(spec.rekey_month - 1));
    const std::string after =
        fleet.label(spec, common::kStudyStart.plus(spec.rekey_month));
    EXPECT_EQ(before.find("#k1"), std::string::npos);
    EXPECT_NE(after.find("#k1"), std::string::npos);
    EXPECT_EQ(after, before + "#k1");
    const std::string& model_name = fleet.models()[spec.model]->name;
    EXPECT_EQ(before.rfind(model_name + "#", 0), 0u);
    EXPECT_NE(before.find("#" + region_name(spec.region) + "#"),
              std::string::npos);
    return;
  }
  FAIL() << "no re-keying instance in the first 5000";
}

TEST(FleetModel, VendorIsTheFirstWordOfTheCatalogName) {
  const FleetModel fleet(small_options());
  std::set<std::string> vendors;
  for (std::uint32_t m = 0; m < fleet.models().size(); ++m) {
    vendors.insert(fleet.vendor(m));
  }
  EXPECT_EQ(vendors, (std::set<std::string>{"Amazon", "Yi"}));
}

TEST(FleetModel, EpochAdvancesWithSkewedUpdateArrival) {
  // These models ship firmware updates inside the study window.
  FleetOptions options = small_options();
  options.devices = {"Apple TV", "Blink Hub"};
  const FleetModel fleet(options);
  bool saw_updates = false;
  for (std::uint32_t m = 0; m < fleet.models().size(); ++m) {
    const auto& epochs = fleet.epochs(m);
    if (epochs.empty()) continue;
    saw_updates = true;
    InstanceSpec current;
    current.model = m;
    current.skew_months = 0;
    InstanceSpec stale = current;
    stale.skew_months = 3;
    const common::Month first_update = epochs.front();
    // Before the first update everyone runs epoch 0; after the last update
    // a current instance has applied all of them.
    EXPECT_EQ(fleet.epoch_at(current, first_update.plus(-1)), 0);
    EXPECT_EQ(fleet.epoch_at(current, epochs.back()),
              static_cast<int>(epochs.size()));
    // A skewed instance lags: the update month itself still shows epoch 0,
    // and the update lands exactly skew_months later.
    EXPECT_EQ(fleet.epoch_at(current, first_update), 1);
    EXPECT_EQ(fleet.epoch_at(stale, first_update), 0);
    EXPECT_EQ(fleet.epoch_at(stale, first_update.plus(3)), 1);
    // epoch_month maps back: epoch 0 froze at study start, epoch k at the
    // k-th update month.
    EXPECT_EQ(fleet.epoch_month(m, 0), common::kStudyStart);
    EXPECT_EQ(fleet.epoch_month(m, 1), first_update);
    EXPECT_EQ(fleet.epoch_month(m, static_cast<int>(epochs.size())),
              epochs.back());
  }
  EXPECT_TRUE(saw_updates) << "selected models ship no firmware updates";
}

TEST(FleetModel, FrozenProfileClearsUpdatesAndSaltsSeed) {
  const FleetModel fleet(small_options());
  const devices::DeviceProfile base = fleet.frozen_profile(0, 0);
  EXPECT_TRUE(base.updates.empty());
  EXPECT_EQ(base.seed, fleet.models()[0]->seed);  // salt 0 keeps the seed
  const devices::DeviceProfile salted =
      fleet.frozen_profile(0, 0, common::fnv1a64("eu"));
  EXPECT_NE(salted.seed, base.seed);
  // Same salt, same seed — regional variants are deterministic.
  EXPECT_EQ(salted.seed,
            fleet.frozen_profile(0, 0, common::fnv1a64("eu")).seed);
}

TEST(FleetModel, EmptyCatalogSelectionThrows) {
  FleetOptions options;
  options.devices = {"No Such Device"};
  EXPECT_THROW(FleetModel{options}, std::invalid_argument);
}

TEST(FleetNames, ShardHelpersArePaddedAndSuffixed) {
  EXPECT_EQ(fleet_shard_name(0), "fleet-000000.iotshard");
  EXPECT_EQ(fleet_shard_name(42), "fleet-000042.iotshard");
  EXPECT_EQ(scan_shard_name(7), "scan-0007.iotshard");
}

TEST(FleetRegions, NamesAndIterationAgree) {
  EXPECT_EQ(all_regions().size(), kRegionCount);
  std::set<std::string> names;
  for (const Region region : all_regions()) names.insert(region_name(region));
  EXPECT_EQ(names.size(), kRegionCount);
  EXPECT_EQ(age_bucket_name(0), "cur");
  EXPECT_EQ(age_bucket_name(6), "6mo");
  EXPECT_EQ(age_bucket_name(12), "12mo");
  EXPECT_EQ(age_bucket_name(13), "old");
}

// iotls-fleet CLI: --sample takes a finite fraction in [0,1]. strtod
// parses "nan", which fails both range comparisons, so the check must be
// written to reject it.
int run_fleet_cli(const std::string& args) {
  const std::string cmd = std::string(IOTLS_FLEET_BIN) + " " + args +
                          " > /dev/null 2> /dev/null";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST(FleetCli, SampleMustBeAFiniteFractionInUnitRange) {
  for (const char* bad : {"nan", "-nan", "NAN", "inf", "-inf", "1.5", "-0.1",
                          "half", "0.5x", ""}) {
    EXPECT_EQ(run_fleet_cli("campaign --instances 1 --threads 1 --sample '" +
                            std::string(bad) + "'"),
              2)
        << "--sample " << bad;
  }
  // Accepted fractions reach the next argument (which is then rejected,
  // so no campaign runs).
  for (const char* good : {"0", "0.25", "1", "1e-3"}) {
    EXPECT_EQ(run_fleet_cli("campaign --sample " + std::string(good) +
                            " --no-such-flag"),
              2)
        << "--sample " << good;
  }
}

}  // namespace
}  // namespace iotls::fleet
