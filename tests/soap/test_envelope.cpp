#include "soap/envelope.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace h2::soap {
namespace {

TEST(SoapRequest, BuildAndParseScalarParams) {
  std::vector<Value> params{Value::of_string("UTC", "zone"),
                            Value::of_int(3, "precision")};
  auto xml_text = build_request("getTime", "urn:h2:WSTime", params);

  auto call = parse_request(xml_text);
  ASSERT_TRUE(call.ok()) << call.error().describe();
  EXPECT_EQ(call->operation, "getTime");
  EXPECT_EQ(call->service_ns, "urn:h2:WSTime");
  ASSERT_EQ(call->params.size(), 2u);
  EXPECT_EQ(*call->params[0].as_string(), "UTC");
  EXPECT_EQ(call->params[0].name(), "zone");
  EXPECT_EQ(*call->params[1].as_int(), 3);
}

TEST(SoapRequest, NoParams) {
  auto xml_text = build_request("getTime", "urn:t", {});
  auto call = parse_request(xml_text);
  ASSERT_TRUE(call.ok());
  EXPECT_TRUE(call->params.empty());
}

TEST(SoapRequest, DoubleArrayParamsRoundTrip) {
  // The MatMul request from Fig 8: two double[] parameters.
  Rng rng(3);
  auto a = rng.doubles(16);
  auto b = rng.doubles(16);
  std::vector<Value> params{Value::of_doubles(a, "mata"), Value::of_doubles(b, "matb")};
  auto call = parse_request(build_request("getResult", "urn:h2:MatMul", params));
  ASSERT_TRUE(call.ok());
  ASSERT_EQ(call->params.size(), 2u);
  EXPECT_EQ(*call->params[0].as_doubles(), a);
  EXPECT_EQ(*call->params[1].as_doubles(), b);
}

TEST(SoapRequest, BytesParamRoundTrip) {
  Rng rng(5);
  auto payload = rng.bytes(100);
  std::vector<Value> params{Value::of_bytes(payload, "blob")};
  auto call = parse_request(build_request("store", "urn:x", params));
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(*call->params[0].as_bytes(), payload);
}

TEST(SoapRequest, UnnamedParamsGetPositionalNames) {
  std::vector<Value> params{Value::of_int(1), Value::of_int(2)};
  auto call = parse_request(build_request("f", "urn:x", params));
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(call->params[0].name(), "arg0");
  EXPECT_EQ(call->params[1].name(), "arg1");
}

TEST(SoapResponse, ScalarResult) {
  auto xml_text = build_response("getTime", "urn:t", Value::of_string("12:00:00"));
  auto reply = parse_reply(xml_text);
  ASSERT_TRUE(reply.ok());
  ASSERT_FALSE(reply->is_fault());
  EXPECT_EQ(*reply->value().as_string(), "12:00:00");
  EXPECT_EQ(reply->value().name(), "return");
}

TEST(SoapResponse, ArrayResult) {
  Rng rng(8);
  auto data = rng.doubles(64);
  auto reply = parse_reply(build_response("getResult", "urn:mm", Value::of_doubles(data)));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply->value().as_doubles(), data);
}

TEST(SoapResponse, VoidResult) {
  auto reply = parse_reply(build_response("reset", "urn:x", Value::of_void()));
  ASSERT_TRUE(reply.ok());
  ASSERT_FALSE(reply->is_fault());
  EXPECT_EQ(reply->value().kind(), ValueKind::kVoid);
}

TEST(SoapResponse, BoolAndDoubleResults) {
  auto r1 = parse_reply(build_response("f", "urn:x", Value::of_bool(true)));
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(*r1->value().as_bool());
  auto r2 = parse_reply(build_response("f", "urn:x", Value::of_double(-8.25)));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2->value().as_double(), -8.25);
}

TEST(SoapFault, BuildAndParse) {
  Fault fault{"Server", "LAPACK plugin not loaded", "node=B"};
  auto reply = parse_reply(build_fault(fault));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->is_fault());
  EXPECT_EQ(reply->fault().code, "Server");
  EXPECT_EQ(reply->fault().message, "LAPACK plugin not loaded");
  EXPECT_EQ(reply->fault().detail, "node=B");
}

TEST(SoapFault, NoDetail) {
  auto reply = parse_reply(build_fault({"Client", "bad args", ""}));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->fault().detail.empty());
}

TEST(SoapParse, RejectsNonEnvelope) {
  EXPECT_FALSE(parse_request("<NotAnEnvelope/>").ok());
}

TEST(SoapParse, RejectsWrongNamespace) {
  auto text = R"(<Envelope xmlns="urn:wrong"><Body><op/></Body></Envelope>)";
  EXPECT_FALSE(parse_request(text).ok());
}

TEST(SoapParse, RejectsMissingBody) {
  auto text =
      R"(<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Header/></e:Envelope>)";
  EXPECT_FALSE(parse_request(text).ok());
}

TEST(SoapParse, RejectsMultipleBodyChildren) {
  auto text =
      R"(<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body><a/><b/></e:Body></e:Envelope>)";
  EXPECT_FALSE(parse_request(text).ok());
  EXPECT_FALSE(parse_reply(text).ok());
}

TEST(SoapParse, AcceptsForeignPrefixes) {
  // A different SOAP stack might choose other prefixes; only namespaces matter.
  auto text = R"(<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/">
    <s:Body><q:ping xmlns:q="urn:p"><count xsi:type="xsd:long"
      xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">7</count></q:ping></s:Body>
  </s:Envelope>)";
  auto call = parse_request(text);
  ASSERT_TRUE(call.ok()) << call.error().describe();
  EXPECT_EQ(call->operation, "ping");
  EXPECT_EQ(call->service_ns, "urn:p");
  ASSERT_EQ(call->params.size(), 1u);
  EXPECT_EQ(*call->params[0].as_int(), 7);
}

TEST(SoapParse, UntypedElementDefaultsToString) {
  auto text = R"(<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/">
    <s:Body><op xmlns="urn:x"><arg>plain</arg></op></s:Body></s:Envelope>)";
  auto call = parse_request(text);
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(*call->params[0].as_string(), "plain");
}

// One-parameter envelopes, so each case below runs through the streaming
// decoder both as a request argument and as a reply's return value.
std::string one_param_request(std::string_view param) {
  return R"(<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/")"
         R"( xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><s:Body>)"
         R"(<m:op xmlns:m="urn:x">)" +
         std::string(param) + "</m:op></s:Body></s:Envelope>";
}

std::string one_param_reply(std::string_view param) {
  return R"(<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/")"
         R"( xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><s:Body>)"
         R"(<m:opResponse xmlns:m="urn:x">)" +
         std::string(param) + "</m:opResponse></s:Body></s:Envelope>";
}

TEST(SoapValueXml, NilForVoid) {
  constexpr std::string_view kNil = R"(<nothing xsi:nil="true"/>)";
  auto call = parse_request(one_param_request(kNil));
  ASSERT_TRUE(call.ok()) << call.error().describe();
  ASSERT_EQ(call->params.size(), 1u);
  EXPECT_EQ(call->params[0].kind(), ValueKind::kVoid);
  EXPECT_EQ(call->params[0].name(), "nothing");
  auto reply = parse_reply(one_param_reply(kNil));
  ASSERT_TRUE(reply.ok()) << reply.error().describe();
  EXPECT_EQ(reply->value().kind(), ValueKind::kVoid);
}

TEST(SoapValueXml, BadBooleanRejected) {
  constexpr std::string_view kMaybe = R"(<b xsi:type="xsd:boolean">maybe</b>)";
  EXPECT_FALSE(parse_request(one_param_request(kMaybe)).ok());
  EXPECT_FALSE(parse_reply(one_param_reply(kMaybe)).ok());
}

TEST(SoapValueXml, UnsupportedTypeRejected) {
  constexpr std::string_view kDuration = R"(<b xsi:type="xsd:duration">P1D</b>)";
  auto call = parse_request(one_param_request(kDuration));
  ASSERT_FALSE(call.ok());
  EXPECT_EQ(call.error().code(), ErrorCode::kUnsupported);
  auto reply = parse_reply(one_param_reply(kDuration));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code(), ErrorCode::kUnsupported);
}

// An array parameter whose items are written by hand: `count` goes into
// the arrayType attribute and `items` between the tags.
std::string array_param(std::string_view count, std::string_view items) {
  return R"(<v xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:double[)" +
         std::string(count) + "]\">" + std::string(items) + "</v>";
}

// Parses `param` as a request argument and as a reply's return value and
// checks that both agree; returns the doubles, or the error.
Result<std::vector<double>> parse_array(std::string_view param) {
  auto call = parse_request(one_param_request(param));
  auto reply = parse_reply(one_param_reply(param));
  EXPECT_EQ(call.ok(), reply.ok()) << param;
  if (!call.ok()) return call.error();
  if (!reply.ok()) return reply.error();
  EXPECT_EQ(*call->params.at(0).as_doubles(), *reply->value().as_doubles()) << param;
  return *call->params.at(0).as_doubles();
}

// Exact `<item>n</item>` leaves are read in one step; every other item
// shape falls back to the general walk. Each row puts one odd item
// between two exact ones, so both paths run in the same array, and
// states what the general walk yields for it.
TEST(SoapArray, ItemShapesOutsideTheOneStepReadKeepTheirMeaning) {
  struct Row {
    const char* shape;
    std::string_view odd;
    std::optional<double> value;  ///< nullopt: the array is rejected
  };
  const Row rows[] = {
      {"exact", "<item>4.5</item>", 4.5},
      {"prefixed", R"(<x:item xmlns:x="urn:x">4.5</x:item>)", 4.5},
      {"attribute", R"(<item a="1">4.5</item>)", 4.5},
      {"space in start tag", "<item >4.5</item>", 4.5},
      {"space in end tag", "<item>4.5</item >", 4.5},
      {"whitespace between items", " \n<item>4.5</item>\t", 4.5},
      {"comment between items", "<!-- c --><item>4.5</item><!-- d -->", 4.5},
      {"character reference", "<item>&#52;.5</item>", 4.5},
      {"CDATA", "<item><![CDATA[4.5]]></item>", 4.5},
      {"padded text", "<item> 4.5 </item>", 4.5},
      {"nested element", "<item>4<b>9</b>.5</item>", 4.5},
      {"self-closing", "<item/>", std::nullopt},
      {"empty", "<item></item>", std::nullopt},
      {"not a number", "<item>x</item>", std::nullopt},
      {"mismatched end tag", "<item>4.5</items>", std::nullopt},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.shape);
    auto values = parse_array(
        array_param("3", "<item>1</item>" + std::string(row.odd) + "<item>-2</item>"));
    if (!row.value) {
      EXPECT_FALSE(values.ok());
      continue;
    }
    ASSERT_TRUE(values.ok()) << values.error().describe();
    EXPECT_EQ(*values, (std::vector<double>{1, *row.value, -2}));
  }
  // A truncated envelope is rejected wherever it is cut, including
  // inside an item the one-step read would otherwise take.
  const std::string whole = one_param_request(array_param("2", "<item>1</item><item>2</item>"));
  ASSERT_TRUE(parse_request(whole).ok());
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    EXPECT_FALSE(parse_request(std::string_view(whole).substr(0, cut)).ok()) << cut;
  }
}

TEST(SoapArray, DeclaredLengthMustMatchItemCount) {
  // One-step items, then the same counts through the general walk.
  for (std::string_view item : {"<item>1</item>", "<item >1</item>"}) {
    std::string two = std::string(item) + std::string(item);
    std::string three = two + std::string(item);
    for (const std::string& param : {array_param("3", two), array_param("2", three)}) {
      auto values = parse_array(param);
      ASSERT_FALSE(values.ok()) << param;
      EXPECT_EQ(values.error().code(), ErrorCode::kParseError);
    }
    EXPECT_TRUE(parse_array(array_param("2", two)).ok());
    EXPECT_TRUE(parse_array(array_param("3", three)).ok());
  }
  // A count that does not parse sizes nothing and is not checked.
  EXPECT_TRUE(parse_array(array_param("", "<item>1</item>")).ok());
  EXPECT_TRUE(parse_array(array_param("2,3", "<item>1</item>")).ok());
}

}  // namespace
}  // namespace h2::soap
