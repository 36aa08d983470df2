#include "xml/writer.hpp"

#include "xml/escape.hpp"

namespace h2::xml {

namespace {

bool has_text_children(const Node& node) {
  for (const auto& child : node.children()) {
    if (child->type() == NodeType::kText || child->type() == NodeType::kCData) {
      return true;
    }
  }
  return false;
}

void write_node(const Node& node, const WriteOptions& options, int depth,
                std::string& out) {
  auto indent = [&] {
    if (options.pretty) out.append(static_cast<std::size_t>(depth) *
                                       static_cast<std::size_t>(options.indent_width),
                                   ' ');
  };
  auto newline = [&] {
    if (options.pretty) out.push_back('\n');
  };

  switch (node.type()) {
    case NodeType::kText:
      indent();
      out += escape_text(node.text());
      newline();
      return;
    case NodeType::kCData:
      indent();
      out += "<![CDATA[" + node.text() + "]]>";
      newline();
      return;
    case NodeType::kComment:
      indent();
      out += "<!--" + node.text() + "-->";
      newline();
      return;
    case NodeType::kElement:
      break;
  }

  indent();
  out.push_back('<');
  out += node.name();
  for (const auto& attr : node.attributes()) {
    out.push_back(' ');
    out += attr.name;
    out += "=\"";
    out += escape_attr(attr.value);
    out.push_back('"');
  }
  if (node.children().empty()) {
    out += "/>";
    newline();
    return;
  }

  // Elements containing character data (text-only OR mixed content) are
  // written inline even when pretty-printing: injecting indentation inside
  // mixed content would alter the document's text, so pretty output is
  // only applied to element-only content. This keeps parse(write(x)) == x.
  if (has_text_children(node)) {
    out.push_back('>');
    WriteOptions compact;
    compact.pretty = false;
    for (const auto& child : node.children()) {
      write_node(*child, compact, 0, out);
    }
    out += "</" + node.name() + ">";
    newline();
    return;
  }

  out.push_back('>');
  newline();
  for (const auto& child : node.children()) {
    write_node(*child, options, depth + 1, out);
  }
  indent();
  out += "</" + node.name() + ">";
  newline();
}

}  // namespace

std::string write(const Node& node, const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    if (options.pretty) out.push_back('\n');
  }
  write_node(node, options, 0, out);
  // Trim the trailing newline so compact and pretty forms both end cleanly.
  if (options.pretty && !out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string write(const Document& doc, const WriteOptions& options) {
  if (!doc.root) return {};
  WriteOptions with_decl = options;
  return write(*doc.root, with_decl);
}

}  // namespace h2::xml
