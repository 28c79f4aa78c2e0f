// The admin surface (net/admin.h) on every role: a controller, a log
// maintainer, an indexer and a datacenter each answer the same four admin
// opcodes through the same raw RpcEndpoint call, with the same payloads.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "chariots/datacenter.h"
#include "chariots/fabric.h"
#include "chariots/geo_service.h"
#include "common/codec.h"
#include "common/flight_recorder.h"
#include "flstore/service.h"
#include "net/admin.h"
#include "net/inproc_transport.h"
#include "net/rpc.h"

namespace chariots {
namespace {

using namespace std::chrono_literals;

enum class Role { kController, kMaintainer, kIndexer, kDatacenter };

std::string RoleName(const testing::TestParamInfo<Role>& info) {
  switch (info.param) {
    case Role::kController: return "Controller";
    case Role::kMaintainer: return "Maintainer";
    case Role::kIndexer: return "Indexer";
    case Role::kDatacenter: return "Datacenter";
  }
  return "Unknown";
}

/// Hosts one server of the parameter's role on an in-process transport,
/// named the way chariots_node names it.
class AdminSurfaceTest : public testing::TestWithParam<Role> {
 protected:
  void SetUp() override {
    flstore::ClusterInfo info;
    info.journal = flstore::EpochJournal(1, 4);
    info.maintainers = {"m0/node"};
    switch (GetParam()) {
      case Role::kController:
        node_ = "ctrl/0";
        controller_ = std::make_unique<flstore::ControllerServer>(
            &transport_, node_, info);
        ASSERT_TRUE(controller_->Start().ok());
        break;
      case Role::kMaintainer: {
        node_ = "m0/node";
        flstore::MaintainerOptions mo;
        mo.journal = info.journal;
        mo.store.mode = storage::SyncMode::kMemoryOnly;
        flstore::MaintainerServer::Options so;
        so.node = node_;
        so.peers = {node_};
        maintainer_ =
            std::make_unique<flstore::MaintainerServer>(&transport_, mo, so);
        ASSERT_TRUE(maintainer_->Start().ok());
        break;
      }
      case Role::kIndexer:
        node_ = "idx0/node";
        indexer_ = std::make_unique<flstore::IndexerServer>(&transport_, node_);
        ASSERT_TRUE(indexer_->Start().ok());
        break;
      case Role::kDatacenter:
        node_ = "geo/dc0/api";
        dc_ = std::make_unique<geo::Datacenter>(geo::ChariotsConfig{},
                                                &fabric_);
        ASSERT_TRUE(dc_->Start().ok());
        geo_ = std::make_unique<geo::GeoServer>(&transport_, node_, dc_.get());
        ASSERT_TRUE(geo_->Start().ok());
        break;
    }
    ASSERT_TRUE(probe_.Start().ok());
  }

  void TearDown() override {
    probe_.Stop();
    if (geo_ != nullptr) geo_->Stop();
    if (dc_ != nullptr) dc_->Stop();
    if (indexer_ != nullptr) indexer_->Stop();
    if (maintainer_ != nullptr) maintainer_->Stop();
    if (controller_ != nullptr) controller_->Stop();
  }

  Result<std::string> Call(net::AdminOpcode opcode, std::string payload) {
    return probe_.Call(node_, opcode, std::move(payload), 2000ms);
  }

  static std::string Mode(uint8_t mode) {
    BinaryWriter w;
    w.PutU8(mode);
    return std::move(w).data();
  }

  net::InProcTransport transport_;
  geo::DirectFabric fabric_;
  net::RpcEndpoint probe_{&transport_, "admin/probe"};
  net::NodeId node_;
  std::unique_ptr<flstore::ControllerServer> controller_;
  std::unique_ptr<flstore::MaintainerServer> maintainer_;
  std::unique_ptr<flstore::IndexerServer> indexer_;
  std::unique_ptr<geo::Datacenter> dc_;
  std::unique_ptr<geo::GeoServer> geo_;
};

TEST_P(AdminSurfaceTest, ServesAllFourAdminOpcodes) {
  auto health = Call(net::kHealth, "");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_NE(health->find("\"node\":\"" + node_ + "\""), std::string::npos)
      << *health;

  auto live = Call(net::kFlightRec, Mode(0));
  ASSERT_TRUE(live.ok()) << live.status();
  flightrec::DecodedDump dump;
  EXPECT_TRUE(flightrec::Recorder::Decode(*live, &dump).ok());

  auto breach = Call(net::kFlightRec, Mode(1));
  EXPECT_EQ(breach.status().code(), StatusCode::kNotFound)
      << breach.status();

  auto metrics = Call(net::kMetrics, "");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("\"counters\""), std::string::npos) << *metrics;

  auto traces = Call(net::kTrace, Mode(0));
  ASSERT_TRUE(traces.ok()) << traces.status();
  ASSERT_FALSE(traces->empty());
  EXPECT_EQ(traces->front(), '[') << *traces;
  EXPECT_EQ(traces->back(), ']') << *traces;
}

INSTANTIATE_TEST_SUITE_P(EveryRole, AdminSurfaceTest,
                         testing::Values(Role::kController, Role::kMaintainer,
                                         Role::kIndexer, Role::kDatacenter),
                         RoleName);

}  // namespace
}  // namespace chariots
