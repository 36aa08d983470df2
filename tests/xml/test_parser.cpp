#include "xml/parser.hpp"

#include <gtest/gtest.h>

#include "xml/escape.hpp"

namespace h2::xml {
namespace {

TEST(XmlParser, SimpleElement) {
  auto root = parse_element("<a/>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->name(), "a");
  EXPECT_TRUE((*root)->children().empty());
}

TEST(XmlParser, NestedElements) {
  auto root = parse_element("<a><b><c/></b><d/></a>");
  ASSERT_TRUE(root.ok());
  ASSERT_EQ((*root)->element_children().size(), 2u);
  const Node* b = (*root)->first_child("b");
  ASSERT_NE(b, nullptr);
  EXPECT_NE(b->first_child("c"), nullptr);
}

TEST(XmlParser, Attributes) {
  auto root = parse_element(R"(<svc name="time" version='1.2'/>)");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*(*root)->attr("name"), "time");
  EXPECT_EQ(*(*root)->attr("version"), "1.2");
  EXPECT_FALSE((*root)->attr("missing").has_value());
}

TEST(XmlParser, DuplicateAttributeRejected) {
  EXPECT_FALSE(parse_element(R"(<a x="1" x="2"/>)").ok());
}

TEST(XmlParser, TextContent) {
  auto root = parse_element("<t>hello world</t>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->inner_text(), "hello world");
}

TEST(XmlParser, EntitiesDecoded) {
  auto root = parse_element("<t>a &lt; b &amp;&amp; c &gt; d &quot;q&quot; &apos;</t>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->inner_text(), "a < b && c > d \"q\" '");
}

TEST(XmlParser, NumericCharacterReferences) {
  auto root = parse_element("<t>&#65;&#x42;&#x3C0;</t>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->inner_text(), "AB\xCF\x80");  // pi in UTF-8
}

TEST(XmlParser, UnknownEntityIsError) {
  EXPECT_FALSE(parse_element("<t>&nope;</t>").ok());
}

TEST(XmlParser, EntityInAttribute) {
  auto root = parse_element(R"(<a v="x&amp;y"/>)");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*(*root)->attr("v"), "x&y");
}

TEST(XmlParser, CData) {
  auto root = parse_element("<t><![CDATA[<raw> & stuff]]></t>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->inner_text(), "<raw> & stuff");
}

TEST(XmlParser, CommentsDroppedByDefault) {
  auto root = parse_element("<a><!-- hidden --><b/></a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->children().size(), 1u);
}

TEST(XmlParser, DeclarationParsed) {
  auto doc = parse("<?xml version=\"1.1\" encoding=\"us-ascii\"?><r/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->version, "1.1");
  EXPECT_EQ(doc->encoding, "us-ascii");
  EXPECT_EQ(doc->root->name(), "r");
}

TEST(XmlParser, DoctypeSkipped) {
  auto doc = parse("<!DOCTYPE note SYSTEM \"x.dtd\"><note/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->name(), "note");
}

TEST(XmlParser, WhitespaceTextDroppedByDefault) {
  auto root = parse_element("<a>\n  <b/>\n</a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->children().size(), 1u);
}

TEST(XmlParser, MismatchedTagsRejected) {
  auto r = parse_element("<a><b></a></b>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kParseError);
}

TEST(XmlParser, UnterminatedTagRejected) {
  EXPECT_FALSE(parse_element("<a").ok());
  EXPECT_FALSE(parse_element("<a><b></b>").ok());
}

TEST(XmlParser, TrailingGarbageRejected) {
  EXPECT_FALSE(parse_element("<a/><b/>").ok());
  EXPECT_FALSE(parse_element("<a/>junk").ok());
}

TEST(XmlParser, EmptyInputRejected) {
  EXPECT_FALSE(parse_element("").ok());
  EXPECT_FALSE(parse_element("   ").ok());
}

TEST(XmlParser, ErrorsCarryLineNumbers) {
  auto r = parse_element("<a>\n<b>\n</wrong>\n</a>");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message().find("line 3"), std::string::npos);
}

TEST(XmlParser, NamespaceResolution) {
  auto root = parse_element(
      R"(<root xmlns="urn:default" xmlns:s="urn:soap"><s:child><inner/></s:child></root>)");
  ASSERT_TRUE(root.ok());
  const Node* child = (*root)->first_child("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(*child->namespace_uri(), "urn:soap");
  EXPECT_EQ(child->prefix(), "s");
  EXPECT_EQ(child->local_name(), "child");
  const Node* inner = child->first_child("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(*inner->namespace_uri(), "urn:default");
}

TEST(XmlParser, NamespaceShadowing) {
  auto root = parse_element(
      R"(<a xmlns:p="urn:outer"><b xmlns:p="urn:inner"><p:c/></b><p:d/></a>)");
  ASSERT_TRUE(root.ok());
  const Node* c = (*root)->first_child("b")->first_child("c");
  const Node* d = (*root)->first_child("d");
  EXPECT_EQ(*c->namespace_uri(), "urn:inner");
  EXPECT_EQ(*d->namespace_uri(), "urn:outer");
}

TEST(XmlParser, UnboundPrefixHasNoNamespace) {
  auto root = parse_element("<q:a/>");
  ASSERT_TRUE(root.ok());
  EXPECT_FALSE((*root)->namespace_uri().has_value());
}

TEST(XmlParser, ProcessingInstructionSkipped) {
  auto root = parse_element("<a><?php echo ?><b/></a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->children().size(), 1u);
}

TEST(XmlEscape, TextEscaping) {
  EXPECT_EQ(escape_text("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(escape_text("\"'"), "\"'");
}

TEST(XmlEscape, AttrEscaping) {
  EXPECT_EQ(escape_attr("\"'<>&"), "&quot;&apos;&lt;&gt;&amp;");
}

TEST(XmlEscape, DecodeRejectsBadRefs) {
  EXPECT_FALSE(decode_entities("&#;").ok());
  EXPECT_FALSE(decode_entities("&#xZZ;").ok());
  EXPECT_FALSE(decode_entities("&unterminated").ok());
  EXPECT_FALSE(decode_entities("&#1114112;").ok());  // > U+10FFFF
}

}  // namespace
}  // namespace h2::xml
