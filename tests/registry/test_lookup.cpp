// Discovery-strategy tests over a SimNetwork cluster: all three strategies
// must agree on results; their cost profiles must match the paper's
// description (centralized pays network on registration AND lookup;
// decentralized registers for free and pays on lookup; neighborhood pays
// k replications and finds neighbours locally).
#include "registry/lookup.hpp"

#include <gtest/gtest.h>

#include "transport/socknet.hpp"
#include "wsdl/descriptor.hpp"

namespace h2::reg {
namespace {

wsdl::Definitions make_service(const std::string& name, const std::string& host) {
  wsdl::ServiceDescriptor d;
  d.name = name;
  d.operations.push_back({"run", {}, ValueKind::kString});
  std::vector<wsdl::EndpointSpec> endpoints{
      {wsdl::BindingKind::kXdr, "xdr://" + host + ":9500", {}}};
  return *wsdl::generate(d, endpoints);
}

class LookupTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 6;

  void SetUp() override {
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto id = *net_.add_host("node" + std::to_string(i));
      nodes_.push_back(std::make_unique<RegistryNode>(net_, id, net_.clock()));
      ASSERT_TRUE(nodes_.back()->start().ok());
    }
    for (auto& node : nodes_) raw_.push_back(node.get());
  }

  net::SimNetwork net_;
  std::vector<std::unique_ptr<RegistryNode>> nodes_;
  std::vector<RegistryNode*> raw_;
};

TEST_F(LookupTest, CentralizedPublishAndLookup) {
  auto strategy = make_centralized_lookup(raw_, 0);
  ASSERT_TRUE(strategy->publish(3, make_service("Alpha", "node3")).ok());
  // Document lives only on the center.
  EXPECT_EQ(nodes_[0]->registry().size(), 1u);
  EXPECT_EQ(nodes_[3]->registry().size(), 0u);

  auto found = strategy->lookup(5, "AlphaService");
  ASSERT_TRUE(found.ok()) << found.error().describe();
  EXPECT_EQ(found->name, "Alpha");
}

TEST_F(LookupTest, CentralizedLookupMiss) {
  auto strategy = make_centralized_lookup(raw_, 0);
  auto found = strategy->lookup(1, "Ghost");
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.error().code(), ErrorCode::kNotFound);
}

TEST_F(LookupTest, CentralizedCenterIsSpof) {
  auto strategy = make_centralized_lookup(raw_, 0);
  ASSERT_TRUE(strategy->publish(1, make_service("Alpha", "node1")).ok());
  // Partition the center from node 2: discovery fails even though the
  // provider (node 1) is reachable — the single point of failure.
  ASSERT_TRUE(net_.partition(nodes_[2]->host(), nodes_[0]->host()).ok());
  EXPECT_FALSE(strategy->lookup(2, "AlphaService").ok());
}

TEST_F(LookupTest, DecentralizedRegistrationIsFree) {
  auto strategy = make_decentralized_lookup(raw_);
  net_.reset_stats();
  ASSERT_TRUE(strategy->publish(2, make_service("Alpha", "node2")).ok());
  EXPECT_EQ(net_.stats().messages, 0u);  // "fully localized"
  EXPECT_EQ(nodes_[2]->registry().size(), 1u);
}

TEST_F(LookupTest, DecentralizedLookupFansOut) {
  auto strategy = make_decentralized_lookup(raw_);
  ASSERT_TRUE(strategy->publish(4, make_service("Alpha", "node4")).ok());
  net_.reset_stats();
  auto found = strategy->lookup(0, "AlphaService");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->name, "Alpha");
  // The active lookup had to interrogate other nodes.
  EXPECT_GT(net_.stats().messages, 0u);
}

TEST_F(LookupTest, DecentralizedLocalHitCostsNothing) {
  auto strategy = make_decentralized_lookup(raw_);
  ASSERT_TRUE(strategy->publish(1, make_service("Alpha", "node1")).ok());
  net_.reset_stats();
  auto found = strategy->lookup(1, "AlphaService");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(net_.stats().messages, 0u);
}

TEST_F(LookupTest, DecentralizedMissQueriesEveryone) {
  auto strategy = make_decentralized_lookup(raw_);
  net_.reset_stats();
  EXPECT_FALSE(strategy->lookup(0, "Ghost").ok());
  // A full sweep: one call (2 messages) per other node.
  EXPECT_EQ(net_.stats().calls, kNodes - 1);
}

TEST_F(LookupTest, NeighborhoodReplicatesToKNeighbors) {
  auto strategy = make_neighborhood_lookup(raw_, 2);
  ASSERT_TRUE(strategy->publish(0, make_service("Alpha", "node0")).ok());
  EXPECT_EQ(nodes_[0]->registry().size(), 1u);
  EXPECT_EQ(nodes_[1]->registry().size(), 1u);
  EXPECT_EQ(nodes_[2]->registry().size(), 1u);
  EXPECT_EQ(nodes_[3]->registry().size(), 0u);
}

TEST_F(LookupTest, NeighborhoodNeighborHitIsLocal) {
  auto strategy = make_neighborhood_lookup(raw_, 2);
  ASSERT_TRUE(strategy->publish(0, make_service("Alpha", "node0")).ok());
  net_.reset_stats();
  auto found = strategy->lookup(2, "AlphaService");  // within the k=2 ring
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(net_.stats().messages, 0u);
}

TEST_F(LookupTest, NeighborhoodFarHostFallsBackToQuery) {
  auto strategy = make_neighborhood_lookup(raw_, 1);
  ASSERT_TRUE(strategy->publish(0, make_service("Alpha", "node0")).ok());
  net_.reset_stats();
  auto found = strategy->lookup(4, "AlphaService");  // outside the ring
  ASSERT_TRUE(found.ok());
  EXPECT_GT(net_.stats().messages, 0u);
}

TEST_F(LookupTest, NeighborhoodRingWraps) {
  auto strategy = make_neighborhood_lookup(raw_, 2);
  ASSERT_TRUE(strategy->publish(kNodes - 1, make_service("Omega", "node5")).ok());
  EXPECT_EQ(nodes_[0]->registry().size(), 1u);  // wrap-around neighbour
  EXPECT_EQ(nodes_[1]->registry().size(), 1u);
}

TEST_F(LookupTest, AllStrategiesAgreeOnContent) {
  std::vector<std::unique_ptr<LookupStrategy>> strategies;
  strategies.push_back(make_centralized_lookup(raw_, 0));
  strategies.push_back(make_decentralized_lookup(raw_));
  strategies.push_back(make_neighborhood_lookup(raw_, 2));
  int index = 0;
  for (auto& strategy : strategies) {
    std::string name = std::string("Svc") + strategy->name();
    ASSERT_TRUE(strategy->publish(1, make_service(name, "node1")).ok()) << strategy->name();
    auto found = strategy->lookup(4, name + "Service");
    ASSERT_TRUE(found.ok()) << strategy->name() << ": " << found.error().describe();
    EXPECT_EQ(found->name, name);
    ++index;
  }
}

TEST_F(LookupTest, RegistryNodeStopUnbindsPort) {
  EXPECT_TRUE(net_.is_listening(nodes_[0]->host(), kRegistryPort));
  nodes_[0]->stop();
  EXPECT_FALSE(net_.is_listening(nodes_[0]->host(), kRegistryPort));
  // Centralized against a stopped center fails loudly.
  auto strategy = make_centralized_lookup(raw_, 0);
  EXPECT_FALSE(strategy->publish(1, make_service("X", "node1")).ok());
}

/// `n` started registry nodes over a transport of their own.
template <typename Net>
struct Cluster {
  template <typename... NetArgs>
  explicit Cluster(std::size_t n, NetArgs... net_args) : net(net_args...) {
    for (std::size_t i = 0; i < n; ++i) {
      std::string name = "node";
      name += std::to_string(i);
      auto id = *net.add_host(name);
      nodes.push_back(std::make_unique<RegistryNode>(net, id, clock));
      EXPECT_TRUE(nodes.back()->start().ok());
      raw.push_back(nodes.back().get());
    }
  }

  VirtualClock clock;
  Net net;
  std::vector<std::unique_ptr<RegistryNode>> nodes;
  std::vector<RegistryNode*> raw;
};

// make_decentralized_lookup is make_neighborhood_lookup(nodes, 0): the
// same publishes and lookups (hits, local hits, misses) give the same
// answers, the same registry contents and the same traffic. Both
// factories build the same class today, so this guards against a second
// decentralized strategy coming back with its own walk.
TEST(LookupSpectrum, DecentralizedIsNeighborhoodOfZero) {
  auto run = [](bool as_neighborhood) {
    Cluster<net::SimNetwork> cluster(6);
    auto strategy = as_neighborhood ? make_neighborhood_lookup(cluster.raw, 0)
                                     : make_decentralized_lookup(cluster.raw);
    EXPECT_STREQ(strategy->name(), "decentralized");
    std::vector<std::string> transcript;
    for (std::size_t from : {0, 2, 5}) {
      std::string name = "S";
      name += std::to_string(from);
      EXPECT_TRUE(strategy->publish(from, make_service(name, "node")).ok());
    }
    for (std::size_t from = 0; from < cluster.raw.size(); ++from) {
      for (const char* service : {"S0Service", "S5Service", "GhostService"}) {
        auto found = strategy->lookup(from, service);
        transcript.push_back(found.ok() ? found->name : found.error().describe());
      }
    }
    for (const RegistryNode* node : cluster.raw) {
      transcript.push_back(std::to_string(node->registry().size()));
    }
    const net::NetStats traffic = cluster.net.stats();
    transcript.push_back(std::to_string(traffic.messages) + " " +
                         std::to_string(traffic.calls) + " " +
                         std::to_string(traffic.bytes));
    return transcript;
  };
  EXPECT_EQ(run(false), run(true));
}

// EXP-LOOKUP's deterministic counts: a registration costs 2 / 0 / 4
// messages (centralized / decentralized / neighborhood k=2) at 4, 16 and
// 64 nodes, and a miss at 16 nodes costs 2 / 30 / 30.
TEST(LookupSpectrum, ExpLookupMessageCounts) {
  auto strategies = [](std::vector<RegistryNode*> raw) {
    std::vector<std::unique_ptr<LookupStrategy>> out;
    out.push_back(make_centralized_lookup(raw, 0));
    out.push_back(make_decentralized_lookup(raw));
    out.push_back(make_neighborhood_lookup(raw, 2));
    return out;
  };
  for (std::size_t n : {4, 16, 64}) {
    Cluster<net::SimNetwork> cluster(n);
    const std::uint64_t per_register[] = {2, 0, 4};
    auto spectrum = strategies(cluster.raw);
    int published = 0;
    for (std::size_t s = 0; s < spectrum.size(); ++s) {
      for (std::size_t from : {std::size_t{0}, n / 2, n - 1}) {
        const std::uint64_t before = cluster.net.stats().messages;
        std::string name = "R";
        name += std::to_string(published++);
        ASSERT_TRUE(spectrum[s]->publish(from, make_service(name, "node")).ok());
        EXPECT_EQ(cluster.net.stats().messages - before, per_register[s])
            << spectrum[s]->name() << " from " << from << " of " << n;
      }
    }
  }
  Cluster<net::SimNetwork> cluster(16);
  const std::uint64_t per_miss[] = {2, 30, 30};
  auto spectrum = strategies(cluster.raw);
  for (std::size_t s = 0; s < spectrum.size(); ++s) {
    const std::uint64_t before = cluster.net.stats().messages;
    EXPECT_FALSE(spectrum[s]->lookup(0, "GhostService").ok());
    EXPECT_EQ(cluster.net.stats().messages - before, per_miss[s]) << spectrum[s]->name();
  }
}

// The lookup spectrum over real loopback TCP: a neighborhood(k=2)
// publish, a lookup inside the neighbourhood and one beyond it send the
// same traffic as the same sequence over the simulator.
TEST(LookupSpectrum, NeighborhoodOverSocketsMatchesSim) {
  auto run = [](auto& cluster) {
    auto strategy = make_neighborhood_lookup(cluster.raw, 2);
    EXPECT_TRUE(strategy->publish(0, make_service("Alpha", "node0")).ok());
    auto near = strategy->lookup(2, "AlphaService");
    auto far = strategy->lookup(4, "AlphaService");
    EXPECT_TRUE(near.ok() && far.ok());
    return cluster.net.stats();
  };
  Cluster<net::SimNetwork> sim(6);
  Cluster<net::SockNet> tcp(6, net::SockFamily::kTcp);
  const net::NetStats over_sim = run(sim);
  const net::NetStats over_tcp = run(tcp);
  EXPECT_EQ(over_sim.calls, 3u);  // two replications, one far query
  EXPECT_EQ(over_tcp.messages, over_sim.messages);
  EXPECT_EQ(over_tcp.calls, over_sim.calls);
  EXPECT_EQ(over_tcp.bytes, over_sim.bytes);
}

}  // namespace
}  // namespace h2::reg
