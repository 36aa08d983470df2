// Property-based suites over randomized inputs (seeds are the TEST_P
// parameters, so failures reproduce deterministically).
#include <gtest/gtest.h>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"
#include "soap/envelope.hpp"
#include "transport/marshal.hpp"
#include "util/rng.hpp"
#include "wsdl/descriptor.hpp"
#include "wsdl/io.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace h2 {
namespace {

// ---- random generators -----------------------------------------------------

Value random_value(Rng& rng, bool allow_void = true) {
  switch (rng.next_below(allow_void ? 7 : 6)) {
    case 0: return Value::of_bool(rng.next_bool(0.5), "b");
    case 1: return Value::of_int(rng.next_range(-1'000'000, 1'000'000), "i");
    case 2: return Value::of_double(rng.next_double() * 2e6 - 1e6, "d");
    case 3: {
      std::string s;
      for (std::size_t i = rng.next_below(40); i > 0; --i) {
        // Printable ASCII including XML-hostile characters.
        s.push_back(static_cast<char>(32 + rng.next_below(95)));
      }
      return Value::of_string(std::move(s), "s");
    }
    case 4: return Value::of_doubles(rng.doubles(rng.next_below(64)), "arr");
    case 5: return Value::of_bytes(rng.bytes(rng.next_below(64)), "blob");
    default: return Value::of_void("v");
  }
}

ValueKind random_kind(Rng& rng) {
  static const ValueKind kinds[] = {ValueKind::kBool, ValueKind::kInt,
                                    ValueKind::kDouble, ValueKind::kString,
                                    ValueKind::kDoubleArray, ValueKind::kBytes};
  return kinds[rng.next_below(6)];
}

class SeededProperty : public ::testing::TestWithParam<int> {};

// Property: any list of Values survives an XDR call frame round trip.
TEST_P(SeededProperty, XdrCallFrameRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int round = 0; round < 20; ++round) {
    std::vector<Value> params;
    for (std::size_t i = rng.next_below(6); i > 0; --i) {
      params.push_back(random_value(rng));
    }
    auto frame = net::marshal_call(std::string("op").append(std::to_string(round)), params);
    auto back = net::unmarshal_call(frame.bytes());
    ASSERT_TRUE(back.ok()) << back.error().describe();
    EXPECT_EQ(back->operation, std::string("op").append(std::to_string(round)));
    ASSERT_EQ(back->params.size(), params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(back->params[i], params[i]) << "round " << round << " param " << i;
    }
  }
}

// Property: any list of Values survives a SOAP envelope round trip
// (XML-hostile strings included).
TEST_P(SeededProperty, SoapEnvelopeRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  for (int round = 0; round < 10; ++round) {
    std::vector<Value> params;
    for (std::size_t i = rng.next_below(5); i > 0; --i) {
      params.push_back(random_value(rng, /*allow_void=*/false));
    }
    auto text = soap::build_request("call", "urn:prop", params);
    auto back = soap::parse_request(text);
    ASSERT_TRUE(back.ok()) << back.error().describe() << "\n" << text;
    ASSERT_EQ(back->params.size(), params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (params[i].kind() == ValueKind::kInt) {
        // Integers widen through xsd:long faithfully.
        EXPECT_EQ(*back->params[i].as_int(), *params[i].as_int());
      } else {
        EXPECT_EQ(back->params[i], params[i]) << "round " << round << " param " << i;
      }
    }
  }
}

// Property: random service descriptors survive
// generate -> XML -> parse -> descriptor_from.
TEST_P(SeededProperty, WsdlDescriptorRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 17);
  for (int round = 0; round < 10; ++round) {
    wsdl::ServiceDescriptor d;
    d.name = "Svc" + std::to_string(GetParam()) + "_" + std::to_string(round);
    std::size_t ops = 1 + rng.next_below(5);
    for (std::size_t o = 0; o < ops; ++o) {
      wsdl::OperationSpec op;
      op.name = std::string("op").append(std::to_string(o));
      for (std::size_t p = rng.next_below(4); p > 0; --p) {
        op.params.push_back({std::string("p").append(std::to_string(p)), random_kind(rng)});
      }
      op.result = rng.next_bool(0.2) ? ValueKind::kVoid : random_kind(rng);
      d.operations.push_back(std::move(op));
    }
    std::vector<wsdl::EndpointSpec> endpoints{
        {wsdl::BindingKind::kSoap, "http://h:1/" + d.name, {}},
        {wsdl::BindingKind::kXdr, "xdr://h:2", {}},
    };
    auto defs = wsdl::generate(d, endpoints);
    ASSERT_TRUE(defs.ok()) << defs.error().describe();
    auto reparsed = wsdl::parse(wsdl::to_xml_string(*defs, rng.next_bool(0.5)));
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().describe();
    EXPECT_EQ(*reparsed, *defs);
    auto recovered = wsdl::descriptor_from(*reparsed);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->name, d.name);
    EXPECT_EQ(recovered->operations, d.operations);
  }
}

// Property: random XML trees are a write/parse fixpoint.
TEST_P(SeededProperty, XmlWriteParseFixpoint) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 5);

  std::function<void(xml::Node&, int)> grow = [&](xml::Node& node, int depth) {
    std::size_t children = rng.next_below(depth > 0 ? 4 : 1);
    for (std::size_t i = 0; i < children; ++i) {
      if (rng.next_bool(0.3)) {
        std::string text;
        for (std::size_t c = 1 + rng.next_below(12); c > 0; --c) {
          text.push_back(static_cast<char>(33 + rng.next_below(94)));
        }
        node.add_text(std::move(text));
      } else {
        xml::Node* child =
            node.add_element(std::string("e").append(std::to_string(rng.next_below(5))));
        for (std::size_t a = rng.next_below(3); a > 0; --a) {
          child->set_attr(std::string("a").append(std::to_string(a)),
                          std::string("v<&\">'").append(std::to_string(a)));
        }
        grow(*child, depth - 1);
      }
    }
  };

  for (int round = 0; round < 10; ++round) {
    auto root = xml::Node::element("root");
    grow(*root, 4);
    auto once = xml::write(*root);
    auto parsed = xml::parse_element(once);
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe() << "\n" << once;
    EXPECT_EQ(xml::write(**parsed), once);
    // Pretty round trip preserves structure too.
    xml::WriteOptions pretty;
    pretty.pretty = true;
    auto reparsed = xml::parse_element(xml::write(*root, pretty));
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(xml::write(**reparsed), once);
  }
}

// Property: under every coherency protocol, a random sequence of
// *single-writer* set/get/erase operations (each key is owned by one node,
// as with the DVM's real per-node status entries; reads come from
// anywhere) behaves like one shared map. This is exactly the guarantee the
// paper's DVM API needs — and multi-writer keys are NOT promised by the
// decentralized scheme, which is why the workload reflects the contract.
TEST_P(SeededProperty, CoherencyMatchesReferenceMap) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 11);
  kernel::PluginRepository repo;
  ASSERT_TRUE(plugins::register_standard_plugins(repo).ok());

  using ProtocolFactory = std::unique_ptr<dvm::CoherencyProtocol> (*)();
  ProtocolFactory factories[] = {
      dvm::make_full_synchrony, dvm::make_decentralized,
      [] { return dvm::make_neighborhood(1); }};

  for (auto make_protocol : factories) {
    net::SimNetwork net;
    dvm::Dvm machine("prop", make_protocol());
    std::vector<std::unique_ptr<container::Container>> containers;
    for (int i = 0; i < 3; ++i) {
      std::string name = std::string("h").append(std::to_string(i));
      containers.push_back(
          std::make_unique<container::Container>(name, repo, net, *net.add_host(name)));
      ASSERT_TRUE(machine.add_node(*containers.back()).ok());
    }
    auto names = machine.node_names();
    auto owner_of = [&names](const std::string& key) -> const std::string& {
      std::size_t h = 0;
      for (char c : key) h = h * 31 + static_cast<unsigned char>(c);
      return names[h % names.size()];
    };

    std::map<std::string, std::string> reference;
    for (int op = 0; op < 120; ++op) {
      std::string key = std::string("k").append(std::to_string(rng.next_below(8)));
      switch (rng.next_below(3)) {
        case 0: {
          std::string value = std::string("v").append(std::to_string(op));
          ASSERT_TRUE(machine.set(owner_of(key), key, value).ok());
          reference[key] = value;
          break;
        }
        case 1: {
          const std::string& reader = names[rng.next_below(names.size())];
          auto got = machine.get(reader, key);
          auto expected = reference.find(key);
          if (expected == reference.end()) {
            EXPECT_FALSE(got.ok()) << key;
          } else {
            ASSERT_TRUE(got.ok()) << key << ": " << got.error().describe();
            EXPECT_EQ(*got, expected->second) << key;
          }
          break;
        }
        default: {
          (void)machine.erase(owner_of(key), key);
          reference.erase(key);
          break;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace h2
