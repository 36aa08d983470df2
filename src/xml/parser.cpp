#include "xml/parser.hpp"

#include <vector>

#include "xml/pull_parser.hpp"

namespace h2::xml {

namespace {

void read_pseudo_attr(std::string_view decl, std::string_view key,
                      std::string& out) {
  std::size_t k = decl.find(key);
  if (k == std::string_view::npos) return;
  std::size_t q1 = decl.find_first_of("\"'", k);
  if (q1 == std::string_view::npos) return;
  std::size_t q2 = decl.find(decl[q1], q1 + 1);
  if (q2 == std::string_view::npos) return;
  out = std::string(decl.substr(q1 + 1, q2 - q1 - 1));
}

/// Copies version/encoding from a leading XML declaration, read loosely
/// up to "?>". The pull parser skips the declaration like any other PI.
void read_declaration(std::string_view input, Document& doc) {
  std::size_t start = input.find_first_not_of(" \t\n\r\f\v");
  if (start == std::string_view::npos || input.compare(start, 5, "<?xml") != 0) {
    return;
  }
  std::string_view decl = input.substr(start + 5);
  decl = decl.substr(0, decl.find("?>"));
  read_pseudo_attr(decl, "version", doc.version);
  read_pseudo_attr(decl, "encoding", doc.encoding);
}

}  // namespace

Result<Document> parse(std::string_view input) {
  Document doc;
  PullParser pull(input);
  std::vector<Node*> open;
  std::string scratch;
  while (true) {
    auto token = pull.next();
    if (!token.ok()) return token.error();
    switch (*token) {
      case Token::kStartElement: {
        auto element = Node::element(std::string(pull.name()));
        for (const PullAttribute& attr : pull.attributes()) {
          auto value = pull.attr(attr.name, scratch);
          if (!value.ok()) return value.error();
          element->set_attr(std::string(attr.name), std::string(**value));
        }
        Node* raw = element.get();
        if (open.empty()) {
          doc.root = std::move(element);
        } else {
          open.back()->add_child(std::move(element));
        }
        open.push_back(raw);
        break;
      }
      case Token::kEndElement:
        open.pop_back();
        break;
      case Token::kText: {
        auto text = pull.text(scratch);
        if (!text.ok()) return text.error();
        open.back()->add_text(std::string(*text));
        break;
      }
      case Token::kCData:
        open.back()->add_child(Node::cdata(std::string(pull.raw_text())));
        break;
      case Token::kEof:
        read_declaration(input, doc);
        return doc;
    }
  }
}

Result<std::unique_ptr<Node>> parse_element(std::string_view input) {
  auto doc = parse(input);
  if (!doc.ok()) return doc.error();
  return std::move(doc->root);
}

}  // namespace h2::xml
