// Component migration: state snapshots survive the move, the wire is
// charged for the state bytes, and failure leaves the source untouched.
#include "core/mobility.hpp"

#include <gtest/gtest.h>

#include "core/harness2.hpp"
#include "plugins/linalg.hpp"
#include "util/rng.hpp"

namespace h2::mobility {
namespace {

class MobilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = *fw_.create_container("source");
    target_ = *fw_.create_container("target");
  }

  Framework fw_;
  container::Container* source_ = nullptr;
  container::Container* target_ = nullptr;
};

TEST_F(MobilityTest, StatefulComponentSurvivesMove) {
  // Factor a matrix on the source...
  container::DeployOptions options;
  options.expose_xdr = true;
  auto id = source_->deploy("lapack", options);
  ASSERT_TRUE(id.ok());
  auto& dispatcher = *source_->instance(*id);

  std::vector<double> matrix{4, 1, 0, 1, 4, 1, 0, 1, 4};
  std::vector<double> x_true{2, -1, 0.5};
  auto b = linalg::matvec(matrix, x_true, 3);
  std::vector<Value> set_params{Value::of_doubles(matrix, "a")};
  ASSERT_TRUE(dispatcher.dispatch("setMatrix", set_params).ok());
  ASSERT_TRUE(dispatcher.dispatch("factor", {}).ok());

  // ...move it...
  auto report = migrate_component(*source_, *id, "target");
  ASSERT_TRUE(report.ok()) << report.error().describe();
  EXPECT_GT(report->state_bytes, 9 * 8u);  // at least the matrix itself
  EXPECT_GT(report->wire_time, 0);
  EXPECT_EQ(source_->component_count(), 0u);
  EXPECT_EQ(target_->component_count(), 1u);

  // ...and solve on the target against the migrated factorization.
  auto& moved = *target_->instance(report->new_instance_id);
  std::vector<Value> solve_params{Value::of_doubles(b, "b")};
  auto x = moved.dispatch("solve", solve_params);
  ASSERT_TRUE(x.ok()) << x.error().describe();
  EXPECT_LT(linalg::max_abs_diff(*x->as_doubles(), x_true), 1e-10);
}

TEST_F(MobilityTest, TableContentsSurviveMove) {
  auto id = source_->deploy("table");
  ASSERT_TRUE(id.ok());
  auto& dispatcher = *source_->instance(*id);
  for (int i = 0; i < 10; ++i) {
    std::vector<Value> put_params{
        Value::of_string(std::string("k").append(std::to_string(i))),
        Value::of_string(std::string("v").append(std::to_string(i)))};
    ASSERT_TRUE(dispatcher.dispatch("put", put_params).ok());
  }
  auto report = migrate_component(*source_, *id, "target");
  ASSERT_TRUE(report.ok());
  auto& moved = *target_->instance(report->new_instance_id);
  EXPECT_EQ(*moved.dispatch("size", {})->as_int(), 10);
  std::vector<Value> get_params{Value::of_string("k7")};
  EXPECT_EQ(*moved.dispatch("get", get_params)->as_string(), "v7");
}

TEST_F(MobilityTest, StatelessComponentMovesWithVoidState) {
  auto id = source_->deploy("ping");
  ASSERT_TRUE(id.ok());
  auto report = migrate_component(*source_, *id, "target");
  ASSERT_TRUE(report.ok()) << report.error().describe();
  auto& moved = *target_->instance(report->new_instance_id);
  EXPECT_TRUE(moved.dispatch("ping", {}).ok());
}

TEST_F(MobilityTest, MissingInstanceFails) {
  auto report = migrate_component(*source_, "ghost-1", "target");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code(), ErrorCode::kNotFound);
}

TEST_F(MobilityTest, UnreachableTargetLeavesSourceIntact) {
  auto id = source_->deploy("table");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fw_.network().partition(source_->host(), target_->host()).ok());
  auto report = migrate_component(*source_, *id, "target");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(source_->component_count(), 1u);   // still here
  EXPECT_EQ(target_->component_count(), 0u);   // nothing half-deployed
  EXPECT_TRUE(source_->instance(*id).ok());
}

TEST_F(MobilityTest, MigrationCostScalesWithState) {
  // The paper's "move the code to the data" is a trade-off; verify the
  // wire cost of moving grows with the state size.
  h2::Rng rng(9);
  Nanos costs[2];
  std::size_t sizes[2] = {8, 64};
  for (int round = 0; round < 2; ++round) {
    auto id = source_->deploy("lapack");
    ASSERT_TRUE(id.ok());
    auto& dispatcher = *source_->instance(*id);
    std::size_t n = sizes[round];
    std::vector<Value> set_params{Value::of_doubles(rng.doubles(n * n), "a")};
    ASSERT_TRUE(dispatcher.dispatch("setMatrix", set_params).ok());
    auto report = migrate_component(*source_, *id, "target");
    ASSERT_TRUE(report.ok());
    costs[round] = report->wire_time;
    ASSERT_TRUE(target_->undeploy(report->new_instance_id).ok());
  }
  EXPECT_GT(costs[1], costs[0]);
}

TEST_F(MobilityTest, Section6FinalStep) {
  // After migration next to the LAPACK service, the mover gets the
  // localobject binding on the migrated instance's own WSDL.
  container::DeployOptions options;
  options.expose_xdr = true;
  auto id = source_->deploy("lapack", options);
  ASSERT_TRUE(id.ok());
  auto report = migrate_component(*source_, *id, "target");
  ASSERT_TRUE(report.ok());
  auto defs = *target_->describe(report->new_instance_id);
  auto channel = target_->open_channel(defs);
  ASSERT_TRUE(channel.ok());
  EXPECT_STREQ((*channel)->binding_name(), "localobject");
}

}  // namespace
}  // namespace h2::mobility
