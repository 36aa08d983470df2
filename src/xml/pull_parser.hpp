// Streaming XML pull parser: tokenizes a document in place, yielding
// string_view slices of the input with no DOM allocation. Attributes,
// entity references and namespace URIs are decoded lazily — only when a
// consumer asks, and only when the raw slice actually contains an entity.
// It is the one XML tokenizer in the tree: SOAP reads its events
// directly, and xml::parse() (xml/parser.hpp) builds the DOM that WSDL,
// WSIL and the XML registry use from the same events, so every consumer
// gets the same verdict on malformed input.
//
// Coverage: elements, attributes (duplicates are errors), the five
// predefined entities plus character references, CDATA, comments,
// processing instructions, an XML declaration and a skipped DOCTYPE.
// Self-closing elements emit kStartElement followed by a synthesized
// kEndElement so consumer depth tracking stays uniform.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace h2::xml {

enum class Token {
  kStartElement,  ///< start tag (or self-closing tag)
  kEndElement,    ///< end tag (synthesized for self-closing elements)
  kText,          ///< character data run
  kCData,         ///< CDATA section (never entity-decoded)
  kEof,           ///< end of document
};

/// One attribute of the current start tag. `raw_value` still contains
/// entity references; decode with PullParser::attr() when needed.
struct PullAttribute {
  std::string_view name;       ///< qualified name as written
  std::string_view raw_value;  ///< between the quotes, undecoded
};

class PullParser {
 public:
  struct Options {
    /// Drop whitespace-only text tokens (xml::parse() always does).
    bool ignore_whitespace_text = true;
  };

  explicit PullParser(std::string_view input) : PullParser(input, Options()) {}
  PullParser(std::string_view input, Options options);

  /// Advances to the next token. After kEof, keeps returning kEof.
  Result<Token> next();

  /// Inside an element, consumes a whole `<qname>text</qname>` leaf in one
  /// step and returns its raw text, leaving depth(), token() and name()
  /// as the next() calls over it would (kEndElement of `qname`). Applies
  /// only when the input at the read position is exactly `<qname>` (no
  /// attributes, no whitespace), the text holds no '&', and it ends with
  /// an exact `</qname>`. Otherwise it consumes nothing and returns
  /// nullopt, so the caller falls back to next().
  std::optional<std::string_view> next_leaf(std::string_view qname);

  /// The token next() last produced.
  Token token() const { return token_; }
  /// Depth of open elements (1 while positioned on the root's start tag).
  int depth() const { return static_cast<int>(open_.size()); }

  // ---- current element (kStartElement / kEndElement) ------------------------

  /// Qualified name as written ("SOAP-ENV:Body").
  std::string_view name() const { return name_; }
  /// Part after the colon, or the whole name if unprefixed.
  std::string_view local_name() const;
  /// Part before the colon, empty if unprefixed.
  std::string_view prefix() const;
  /// True if the current start tag was written `<x/>`. The matching
  /// kEndElement is still emitted by the following next().
  bool self_closing() const { return pending_end_; }

  std::span<const PullAttribute> attributes() const { return attrs_; }
  /// Raw (undecoded) value of the attribute with exactly this qualified
  /// name, or nullopt.
  std::optional<std::string_view> raw_attr(std::string_view qname) const;
  /// Decoded value of attribute `qname`. Returns a view of the input when
  /// the value holds no entities; decodes into `scratch` otherwise.
  Result<std::optional<std::string_view>> attr(std::string_view qname,
                                               std::string& scratch) const;

  // ---- character data (kText / kCData) ---------------------------------------

  /// Raw input slice of the current text/CDATA token.
  std::string_view raw_text() const { return text_; }
  /// Decoded text. kText decodes entities (into `scratch` only when any
  /// are present); kCData is returned verbatim.
  Result<std::string_view> text(std::string& scratch) const;

  // ---- namespaces -------------------------------------------------------------

  /// Resolves `prefix` against the xmlns declarations currently in scope
  /// (empty prefix = default namespace). The returned view is valid until
  /// the next call that decodes (rare: URIs containing entities).
  std::optional<std::string_view> resolve_namespace(std::string_view prefix) const;
  /// Namespace URI of the current element's qualified name.
  std::optional<std::string_view> namespace_uri() const;

  // ---- subtree helpers --------------------------------------------------------

  /// Positioned on an element's kStartElement: consumes tokens through its
  /// matching kEndElement (inclusive), discarding the subtree.
  Status skip_element();

  /// Positioned on an element's kStartElement: consumes through the
  /// matching kEndElement and returns the concatenation of the element's
  /// *direct* text/CDATA children (nested elements are skipped), matching
  /// Node::inner_text() on the DOM xml::parse() builds.
  /// Single-slice content is returned zero-copy; otherwise `scratch` holds
  /// the concatenation.
  Result<std::string_view> inner_text(std::string& scratch);

  /// Line/column of the current read position (computed on demand; used
  /// for error messages only, so the hot path never tracks positions).
  std::pair<std::size_t, std::size_t> position() const;

 private:
  struct NsBinding {
    std::string_view prefix;   ///< declared prefix ("" for xmlns=)
    std::string_view raw_uri;  ///< undecoded attribute value
    int depth;                 ///< element depth that declared it
  };

  bool eof() const { return pos_ >= input_.size(); }
  char peek() const { return input_[pos_]; }
  Error fail(const std::string& message) const;

  void skip_ws();
  Status skip_misc();  ///< comments / PIs / DOCTYPE between content
  Result<std::string_view> read_name();
  Result<Token> read_start_tag();
  Result<Token> read_end_tag();
  Result<Token> read_text_run();

  std::string_view input_;
  Options options_;
  std::size_t pos_ = 0;

  Token token_ = Token::kEof;
  std::string_view name_;
  std::string_view text_;
  bool text_needs_decode_ = false;
  bool pending_end_ = false;  ///< self-closing: synthesize the end tag next
  bool saw_root_ = false;
  bool done_ = false;

  std::vector<std::string_view> open_;  ///< open element names (input slices)
  std::vector<PullAttribute> attrs_;    ///< attributes of the current start tag
  std::vector<NsBinding> ns_;           ///< in-scope xmlns declarations
  mutable std::string ns_scratch_;      ///< decode buffer for entity-laden URIs
};

}  // namespace h2::xml
