// Pull parser tests, plus parity tests: xml::parse() builds its DOM from
// PullParser events, and a tree rebuilt here from the raw token stream
// through the lazy decode path SOAP uses must match it — same tree, same
// decoded content, same rejections. The SOAP fast path leans on this.
#include "xml/pull_parser.hpp"

#include <gtest/gtest.h>

#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace h2::xml {
namespace {

// Rebuilds a DOM from the pull token stream. Text is decoded through the
// same lazy path SOAP uses, so a mismatch here means the fast path would
// hand SOAP different bytes than xml::parse() hands the DOM consumers.
Result<std::unique_ptr<Node>> dom_from_pull(std::string_view input) {
  PullParser p(input);
  std::unique_ptr<Node> root;
  std::vector<Node*> stack;
  std::string scratch;
  while (true) {
    auto t = p.next();
    if (!t.ok()) return t.error();
    if (*t == Token::kEof) break;
    switch (*t) {
      case Token::kStartElement: {
        auto el = Node::element(std::string(p.name()));
        for (const PullAttribute& attr : p.attributes()) {
          auto value = p.attr(attr.name, scratch);
          if (!value.ok()) return value.error();
          el->set_attr(std::string(attr.name), std::string(**value));
        }
        Node* raw = el.get();
        if (stack.empty()) {
          root = std::move(el);
        } else {
          stack.back()->add_child(std::move(el));
        }
        stack.push_back(raw);
        break;
      }
      case Token::kEndElement:
        stack.pop_back();
        break;
      case Token::kText: {
        auto text = p.text(scratch);
        if (!text.ok()) return text.error();
        stack.back()->add_text(std::string(*text));
        break;
      }
      case Token::kCData:
        stack.back()->add_child(Node::cdata(std::string(p.raw_text())));
        break;
      case Token::kEof:
        break;
    }
  }
  if (!root) return err::parse("no root");
  return root;
}

// xml::parse_element and the reference rebuild accept `doc` and produce
// byte-identical serializations.
void expect_parity(std::string_view doc) {
  auto dom = parse_element(doc);
  ASSERT_TRUE(dom.ok()) << dom.error().message();
  auto pulled = dom_from_pull(doc);
  ASSERT_TRUE(pulled.ok()) << pulled.error().message();
  EXPECT_EQ(write(**dom), write(**pulled)) << "document: " << doc;
}

// xml::parse_element and the raw token stream both reject `doc`.
void expect_both_reject(std::string_view doc) {
  EXPECT_FALSE(parse_element(doc).ok()) << "DOM accepted: " << doc;
  EXPECT_FALSE(dom_from_pull(doc).ok()) << "pull accepted: " << doc;
}

TEST(PullParser, TokenizesSimpleDocument) {
  PullParser p("<a x=\"1\"><b>hi</b><c/></a>");
  ASSERT_TRUE(p.next().ok());
  EXPECT_EQ(p.token(), Token::kStartElement);
  EXPECT_EQ(p.name(), "a");
  ASSERT_TRUE(p.raw_attr("x").has_value());
  EXPECT_EQ(*p.raw_attr("x"), "1");
  EXPECT_EQ(p.depth(), 1);

  ASSERT_TRUE(p.next().ok());
  EXPECT_EQ(p.token(), Token::kStartElement);
  EXPECT_EQ(p.name(), "b");
  ASSERT_TRUE(p.next().ok());
  EXPECT_EQ(p.token(), Token::kText);
  EXPECT_EQ(p.raw_text(), "hi");
  ASSERT_TRUE(p.next().ok());
  EXPECT_EQ(p.token(), Token::kEndElement);

  ASSERT_TRUE(p.next().ok());
  EXPECT_EQ(p.token(), Token::kStartElement);
  EXPECT_EQ(p.name(), "c");
  EXPECT_TRUE(p.self_closing());
  ASSERT_TRUE(p.next().ok());
  EXPECT_EQ(p.token(), Token::kEndElement);  // synthesized

  ASSERT_TRUE(p.next().ok());
  EXPECT_EQ(p.token(), Token::kEndElement);
  EXPECT_EQ(p.name(), "a");
  auto eof = p.next();
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, Token::kEof);
}

TEST(PullParser, DecodesEntitiesLazily) {
  PullParser p("<a t=\"x &amp; y\">a &lt; b &#65;</a>");
  ASSERT_TRUE(p.next().ok());
  std::string scratch;
  auto attr = p.attr("t", scratch);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(**attr, "x & y");
  ASSERT_TRUE(p.next().ok());
  EXPECT_EQ(p.raw_text(), "a &lt; b &#65;");
  auto text = p.text(scratch);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "a < b A");
}

TEST(PullParser, ResolvesNamespacesInScope) {
  PullParser p(
      "<r xmlns=\"urn:default\" xmlns:a=\"urn:a\">"
      "<a:x><y xmlns:a=\"urn:inner\"><a:z/></y></a:x></r>");
  ASSERT_TRUE(p.next().ok());  // r
  ASSERT_TRUE(p.next().ok());  // a:x
  EXPECT_EQ(p.local_name(), "x");
  EXPECT_EQ(p.prefix(), "a");
  ASSERT_TRUE(p.namespace_uri().has_value());
  EXPECT_EQ(*p.namespace_uri(), "urn:a");
  ASSERT_TRUE(p.next().ok());  // y (default ns)
  EXPECT_EQ(*p.namespace_uri(), "urn:default");
  ASSERT_TRUE(p.next().ok());  // a:z — sees the inner redeclaration
  EXPECT_EQ(*p.namespace_uri(), "urn:inner");
  ASSERT_TRUE(p.next().ok());  // /a:z
  ASSERT_TRUE(p.next().ok());  // /y — binding popped again
  ASSERT_TRUE(p.next().ok());  // /a:x
  EXPECT_EQ(*p.resolve_namespace("a"), "urn:a");
}

TEST(PullParser, InnerTextConcatenatesDirectChildrenOnly) {
  PullParser p("<a>one<b>skipped</b>two<![CDATA[three]]></a>");
  ASSERT_TRUE(p.next().ok());
  std::string scratch;
  auto text = p.inner_text(scratch);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "onetwothree");
  auto eof = p.next();
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, Token::kEof);
}

TEST(PullParser, InnerTextZeroCopyForSingleRun) {
  std::string doc = "<a>plain text</a>";
  PullParser p(doc);
  ASSERT_TRUE(p.next().ok());
  std::string scratch;
  auto text = p.inner_text(scratch);
  ASSERT_TRUE(text.ok());
  // The view must point into the input, not into scratch.
  EXPECT_GE(text->data(), doc.data());
  EXPECT_LT(text->data(), doc.data() + doc.size());
  EXPECT_TRUE(scratch.empty());
}

TEST(PullParser, SkipElementConsumesWholeSubtree) {
  PullParser p("<a><b><c>deep</c><d/></b><e/></a>");
  ASSERT_TRUE(p.next().ok());  // a
  ASSERT_TRUE(p.next().ok());  // b
  ASSERT_TRUE(p.skip_element().ok());
  ASSERT_TRUE(p.next().ok());
  EXPECT_EQ(p.token(), Token::kStartElement);
  EXPECT_EQ(p.name(), "e");
}

// One parser state as next() exposes it, or the error a step produced.
struct Step {
  bool ok;
  Token token;
  std::string name;
  int depth;
  bool operator==(const Step&) const = default;
};

Step here(const PullParser& p) {
  return {true, p.token(), std::string(p.name()), p.depth()};
}

// Every step next() takes from here to kEof or the first error.
std::vector<Step> drain(PullParser& p) {
  std::vector<Step> steps;
  while (true) {
    auto r = p.next();
    steps.push_back(r.ok() ? here(p) : Step{false, Token::kEof, "", 0});
    if (!r.ok() || *r == Token::kEof) return steps;
  }
}

TEST(PullParser, NextLeafReadsExactLeafOrConsumesNothing) {
  struct Case {
    std::string_view doc;
    std::optional<std::string_view> text;  ///< nullopt: must not match
  };
  const Case cases[] = {
      {"<a><item>1.5</item><z/></a>", "1.5"},
      {"<a><item></item></a>", ""},
      {"<a><item> 7 </item></a>", " 7 "},
      {"<a><x:item xmlns:x=\"u\">1</x:item></a>", std::nullopt},
      {"<a><item b=\"1\">1</item></a>", std::nullopt},
      {"<a><item >1</item></a>", std::nullopt},
      {"<a><item>1</item ></a>", std::nullopt},
      {"<a><item>&#49;</item></a>", std::nullopt},
      {"<a><item><![CDATA[1]]></item></a>", std::nullopt},
      {"<a><item/></a>", std::nullopt},
      {"<a><item>1<b/></item></a>", std::nullopt},
      {"<a><item>1<!--c--></item></a>", std::nullopt},
      {"<a><items>1</items></a>", std::nullopt},
      {"<a><item>1</items></a>", std::nullopt},
      {"<a><item>1</item2></a>", std::nullopt},
      {"<a> <item>1</item></a>", std::nullopt},
      {"<a><!--c--><item>1</item></a>", std::nullopt},
      {"<a><item>1", std::nullopt},
      {"<a><item>1</ite", std::nullopt},
      {"<a><item", std::nullopt},
      {"<a/>", std::nullopt},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.doc));
    PullParser leaf(c.doc);
    PullParser walk(c.doc);
    ASSERT_TRUE(leaf.next().ok());
    ASSERT_TRUE(walk.next().ok());
    auto text = leaf.next_leaf("item");
    EXPECT_EQ(text, c.text);
    if (text) {
      // next() over the same leaf ends on its end tag, one level up.
      ASSERT_TRUE(walk.next().ok());
      ASSERT_EQ(walk.token(), Token::kStartElement);
      while (true) {
        auto r = walk.next();
        ASSERT_TRUE(r.ok());
        if (*r == Token::kEndElement) break;
      }
      EXPECT_EQ(here(leaf), here(walk));
      EXPECT_EQ(leaf.depth(), 1);
    }
    // Matched or not, both parsers now stand at the same place.
    EXPECT_EQ(drain(leaf), drain(walk));
  }
}

TEST(PullParser, NextLeafDeclinesOutsideAnOpenElement) {
  // Before the root: the leaf would be the document element.
  PullParser p("<item>1</item>");
  EXPECT_FALSE(p.next_leaf("item").has_value());
  ASSERT_TRUE(p.next().ok());
  EXPECT_EQ(p.token(), Token::kStartElement);
  EXPECT_EQ(p.name(), "item");

  // On a self-closing start tag: its synthesized end comes first.
  constexpr std::string_view kDoc = "<r><a/><item>1</item></r>";
  PullParser leaf(kDoc);
  PullParser walk(kDoc);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(leaf.next().ok());
    ASSERT_TRUE(walk.next().ok());
  }
  ASSERT_TRUE(leaf.self_closing());
  EXPECT_FALSE(leaf.next_leaf("item").has_value());
  EXPECT_EQ(drain(leaf), drain(walk));
}

TEST(PullParserParity, SoapEnvelope) {
  expect_parity(
      "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\""
      " xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\""
      " xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\">"
      "<SOAP-ENV:Body><m:matmul xmlns:m=\"urn:mm\">"
      "<a xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"xsd:double[3]\">"
      "<item>1.5</item><item>-2</item><item>3.25e-3</item></a>"
      "<n xsi:type=\"xsd:long\">42</n>"
      "<s xsi:type=\"xsd:string\">a &amp; b &lt; c</s>"
      "<v xsi:nil=\"true\"/>"
      "</m:matmul></SOAP-ENV:Body></SOAP-ENV:Envelope>");
}

TEST(PullParserParity, WsdlStyleDocument) {
  expect_parity(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"
      "<definitions xmlns=\"http://schemas.xmlsoap.org/wsdl/\""
      " xmlns:tns=\"urn:ws-time\" targetNamespace=\"urn:ws-time\">"
      "<!-- a service from 2002 -->"
      "<types><schema elementFormDefault=\"qualified\"/></types>"
      "<message name=\"getTimeRequest\"/>"
      "<portType name=\"TimePort\"><operation name=\"getTime\">"
      "<input message=\"tns:getTimeRequest\"/></operation></portType>"
      "<service name=\"TimeService\"><port name=\"p\" binding=\"tns:b\">"
      "<address location=\"http://h0:8080/time\"/></port></service>"
      "</definitions>");
}

TEST(PullParserParity, MixedContentAndCData) {
  expect_parity("<a>pre<b>mid</b>post<![CDATA[<raw & stuff>]]></a>");
  expect_parity("<a><![CDATA[]]></a>");
  expect_parity("<a>  keep  <b/>  me  </a>");
}

TEST(PullParserParity, EntitiesEverywhere) {
  expect_parity("<a t=\"&quot;q&quot; &apos;s&apos;\">&amp;&lt;&gt; &#x41;&#66;</a>");
  // Whitespace-only after decoding is dropped by both parsers.
  expect_parity("<a>&#32;&#9;</a>");
  expect_parity("<a> &#32; x </a>");
}

TEST(PullParserParity, CommentsAndPisDropped) {
  expect_parity("<?xml version=\"1.0\"?><!-- head --><a><?pi data?><b/><!-- in --></a><!-- tail -->");
}

TEST(PullParserParity, DoctypeSkipped) {
  expect_parity("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>");
}

TEST(PullParserParity, MalformedDocumentsRejectedByBoth) {
  expect_both_reject("");
  expect_both_reject("   ");
  expect_both_reject("just text");
  expect_both_reject("<a>");                      // unterminated element
  expect_both_reject("<a></b>");                  // mismatched end tag
  expect_both_reject("<a><b></a></b>");           // crossed nesting
  expect_both_reject("<a x=\"1\" x=\"2\"/>");     // duplicate attribute
  expect_both_reject("<a x=1/>");                 // unquoted attribute
  expect_both_reject("<a x=\"1/>");               // unterminated attribute
  expect_both_reject("<a>&unknown;</a>");         // unknown entity
  expect_both_reject("<a>&#xZZ;</a>");            // bad char reference
  expect_both_reject("<a>&amp</a>");              // unterminated entity
  expect_both_reject("<a t=\"&bogus;\"/>");       // bad entity in attribute
  expect_both_reject("<a/><b/>");                 // two roots
  expect_both_reject("<a/>trailing");             // text after root
  expect_both_reject("<!-- only a comment -->");  // no root element
  expect_both_reject("<a><!-- unterminated </a>");
  expect_both_reject("<a/><!-- unterminated");    // unterminated epilog comment
  expect_both_reject("<a><![CDATA[open</a>");
}

TEST(PullParserParity, UnreadAttributeEntitiesStillValidated) {
  // xml::parse() decodes every attribute and rejects bad entities; the
  // pull parser decodes lazily but must still validate at next().
  PullParser p("<a bad=\"&nope;\"/>");
  EXPECT_FALSE(p.next().ok());
}

TEST(PullParserParity, WhitespaceTextKeptWhenRequested) {
  PullParser::Options opts;
  opts.ignore_whitespace_text = false;
  PullParser p("<a> <b/> </a>", opts);
  ASSERT_TRUE(p.next().ok());  // a
  auto t = p.next();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, Token::kText);
  EXPECT_EQ(p.raw_text(), " ");
}

TEST(PullParserParity, ErrorsCarryPosition) {
  PullParser p("<a>\n  <b></c>\n</a>");
  ASSERT_TRUE(p.next().ok());
  ASSERT_TRUE(p.next().ok());
  auto t = p.next();
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.error().message().find("line 2"), std::string::npos)
      << t.error().message();
}

}  // namespace
}  // namespace h2::xml
