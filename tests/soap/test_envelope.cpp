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

}  // namespace
}  // namespace h2::soap
