// A small XML DOM: enough of XML 1.0 + Namespaces for WSDL documents,
// SOAP envelopes, and the XML-queryable registry. Nodes are owned by their
// parent; the tree is built either programmatically or by xml::parse(),
// which assembles it from xml::PullParser events (comment nodes only
// come from the former — parsing drops comments).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace h2::xml {

enum class NodeType { kElement, kText, kComment, kCData };

struct Attribute {
  std::string name;   ///< qualified name as written ("xmlns:soap", "name")
  std::string value;  ///< decoded value (entities resolved)
};

/// One DOM node. Element nodes use name/attributes/children; text, comment
/// and CDATA nodes use text. Parent pointers are maintained by the tree
/// mutators so namespace resolution can walk upwards.
class Node {
 public:
  explicit Node(NodeType type) : type_(type) {}
  static std::unique_ptr<Node> element(std::string name);
  static std::unique_ptr<Node> text(std::string value);
  static std::unique_ptr<Node> comment(std::string value);
  static std::unique_ptr<Node> cdata(std::string value);

  NodeType type() const { return type_; }
  bool is_element() const { return type_ == NodeType::kElement; }

  // ---- element identity ----------------------------------------------------

  /// Qualified name as written, e.g. "soap:binding".
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  /// Part after the colon ("binding"), or the whole name if unprefixed.
  std::string_view local_name() const;
  /// Part before the colon, empty if unprefixed.
  std::string_view prefix() const;

  // ---- text ------------------------------------------------------------------

  /// For text/comment/cdata nodes: the decoded character data.
  const std::string& text() const { return text_; }

  /// For element nodes: concatenation of all *direct* text/CDATA children.
  std::string inner_text() const;

  // ---- attributes ------------------------------------------------------------

  const std::vector<Attribute>& attributes() const { return attrs_; }
  /// Value of attribute `name`, or nullopt. Exact (qualified) name match.
  std::optional<std::string_view> attr(std::string_view name) const;
  /// Value of attribute `name`, or `fallback`.
  std::string attr_or(std::string_view name, std::string_view fallback) const;
  /// Sets (replacing any existing) attribute.
  void set_attr(std::string name, std::string value);
  bool remove_attr(std::string_view name);

  // ---- children ---------------------------------------------------------------

  const std::vector<std::unique_ptr<Node>>& children() const { return children_; }
  Node* parent() const { return parent_; }

  /// Appends a child, taking ownership; returns a borrowed pointer to it.
  Node* add_child(std::unique_ptr<Node> child);
  /// Convenience: append a new element child with `name`.
  Node* add_element(std::string name);
  /// Convenience: append a new element child containing a single text node.
  Node* add_element_with_text(std::string name, std::string text);
  /// Appends a text node child.
  Node* add_text(std::string value);

  /// First element child whose local name equals `local` (prefix ignored).
  const Node* first_child(std::string_view local) const;
  Node* first_child(std::string_view local);
  /// All element children whose local name equals `local`.
  std::vector<const Node*> children_named(std::string_view local) const;
  /// All element children.
  std::vector<const Node*> element_children() const;

  /// Removes child `node` (by pointer identity); true if found.
  bool remove_child(const Node* node);

  /// Deep copy (parent of the copy is null).
  std::unique_ptr<Node> clone() const;

  // ---- namespaces ---------------------------------------------------------------

  /// Resolves `prefix` to a namespace URI by walking xmlns declarations up
  /// the ancestor chain. Empty prefix resolves the default namespace.
  std::optional<std::string_view> resolve_namespace(std::string_view prefix) const;
  /// Namespace URI of this element's own qualified name.
  std::optional<std::string_view> namespace_uri() const;

 private:
  NodeType type_;
  std::string name_;
  std::string text_;
  std::vector<Attribute> attrs_;
  std::vector<std::unique_ptr<Node>> children_;
  Node* parent_ = nullptr;
};

/// A parsed document: the root element plus any XML declaration content.
struct Document {
  std::unique_ptr<Node> root;
  std::string version = "1.0";
  std::string encoding = "UTF-8";

  Document() = default;
  explicit Document(std::unique_ptr<Node> r) : root(std::move(r)) {}
};

}  // namespace h2::xml
