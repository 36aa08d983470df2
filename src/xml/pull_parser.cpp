#include "xml/pull_parser.hpp"

#include <array>

#include "xml/escape.hpp"

namespace h2::xml {

namespace {

/// Name characters: alnum, '_', '-', '.', ':'.
constexpr std::array<bool, 256> make_name_chars() {
  std::array<bool, 256> table{};
  for (unsigned c = '0'; c <= '9'; ++c) table[c] = true;
  for (unsigned c = 'a'; c <= 'z'; ++c) table[c] = true;
  for (unsigned c = 'A'; c <= 'Z'; ++c) table[c] = true;
  table[static_cast<unsigned char>('_')] = true;
  table[static_cast<unsigned char>('-')] = true;
  table[static_cast<unsigned char>('.')] = true;
  table[static_cast<unsigned char>(':')] = true;
  return table;
}

constexpr auto kNameChar = make_name_chars();

bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}

std::string_view local_of(std::string_view qname) {
  auto colon = qname.rfind(':');
  return colon == std::string_view::npos ? qname : qname.substr(colon + 1);
}

std::string_view prefix_of(std::string_view qname) {
  auto colon = qname.rfind(':');
  return colon == std::string_view::npos ? std::string_view{} : qname.substr(0, colon);
}

}  // namespace

PullParser::PullParser(std::string_view input, Options options)
    : input_(input), options_(options) {
  open_.reserve(16);
  attrs_.reserve(8);
  ns_.reserve(8);
}

std::pair<std::size_t, std::size_t> PullParser::position() const {
  std::size_t line = 1;
  std::size_t col = 1;
  for (std::size_t i = 0; i < pos_ && i < input_.size(); ++i) {
    if (input_[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  return {line, col};
}

Error PullParser::fail(const std::string& message) const {
  auto [line, col] = position();
  return err::parse("xml: " + message + " (line " + std::to_string(line) +
                    ", col " + std::to_string(col) + ")");
}

void PullParser::skip_ws() {
  while (!eof() && is_ws(input_[pos_])) ++pos_;
}

std::string_view PullParser::local_name() const { return local_of(name_); }
std::string_view PullParser::prefix() const { return prefix_of(name_); }

Result<std::string_view> PullParser::read_name() {
  std::size_t start = pos_;
  while (pos_ < input_.size() && kNameChar[static_cast<unsigned char>(input_[pos_])]) {
    ++pos_;
  }
  if (pos_ == start) return fail("expected a name");
  return input_.substr(start, pos_ - start);
}

Status PullParser::skip_misc() {
  // Comments, PIs (including the XML declaration) and DOCTYPE. Positioned
  // at '<'; consumes exactly one construct per call from read loops.
  if (input_.compare(pos_, 4, "<!--") == 0) {
    std::size_t end = input_.find("-->", pos_ + 4);
    if (end == std::string_view::npos) return fail("unterminated comment");
    pos_ = end + 3;
    return Status::success();
  }
  if (input_.compare(pos_, 2, "<?") == 0) {
    std::size_t end = input_.find("?>", pos_ + 2);
    pos_ = end == std::string_view::npos ? input_.size() : end + 2;
    return Status::success();
  }
  if (input_.compare(pos_, 9, "<!DOCTYPE") == 0) {
    pos_ += 9;
    int depth = 1;  // bracket-tolerant: skips an internal subset too
    while (!eof() && depth > 0) {
      char c = input_[pos_++];
      if (c == '<') ++depth;
      if (c == '>') --depth;
    }
    return Status::success();
  }
  return fail("unexpected markup");
}

Result<Token> PullParser::next() {
  if (done_) return token_ = Token::kEof;

  if (pending_end_) {
    // Synthesized end of a self-closing element.
    pending_end_ = false;
    name_ = open_.back();
    open_.pop_back();
    while (!ns_.empty() && ns_.back().depth > static_cast<int>(open_.size())) {
      ns_.pop_back();
    }
    return token_ = Token::kEndElement;
  }

  while (true) {
    if (open_.empty()) {
      // Prolog or epilog: only markup/whitespace is allowed here.
      skip_ws();
      if (eof()) {
        if (!saw_root_) return fail("document has no root element");
        done_ = true;
        return token_ = Token::kEof;
      }
      if (peek() != '<') {
        return fail(saw_root_ ? "trailing content after root element"
                              : "expected '<' at document start");
      }
      if (input_.compare(pos_, 2, "<!") == 0 || input_.compare(pos_, 2, "<?") == 0) {
        if (input_.compare(pos_, 9, "<![CDATA[") == 0) {
          return fail("document root must be an element");
        }
        auto status = skip_misc();
        if (!status.ok()) return status.error();
        continue;
      }
      if (input_.compare(pos_, 2, "</") == 0) {
        return fail("end tag outside any element");
      }
      if (saw_root_) return fail("trailing content after root element");
      saw_root_ = true;
      return read_start_tag();
    }

    // Inside an element.
    if (eof()) return fail("missing end tag </" + std::string(open_.back()) + ">");
    if (peek() != '<') return read_text_run();
    if (input_.compare(pos_, 2, "</") == 0) return read_end_tag();
    if (input_.compare(pos_, 9, "<![CDATA[") == 0) {
      std::size_t start = pos_ + 9;
      std::size_t end = input_.find("]]>", start);
      if (end == std::string_view::npos) return fail("unterminated CDATA section");
      text_ = input_.substr(start, end - start);
      text_needs_decode_ = false;
      pos_ = end + 3;
      return token_ = Token::kCData;
    }
    if (input_.compare(pos_, 4, "<!--") == 0 || input_.compare(pos_, 2, "<?") == 0) {
      auto status = skip_misc();
      if (!status.ok()) return status.error();
      continue;
    }
    return read_start_tag();
  }
}

std::optional<std::string_view> PullParser::next_leaf(std::string_view qname) {
  if (done_ || pending_end_ || open_.empty()) return std::nullopt;
  // "<qname>" at the read position.
  const std::size_t p = pos_;
  if (input_.size() - p < qname.size() + 2 || input_[p] != '<' ||
      input_.compare(p + 1, qname.size(), qname) != 0 || input_[p + 1 + qname.size()] != '>') {
    return std::nullopt;
  }
  const std::size_t text_start = p + qname.size() + 2;
  const std::size_t text_end = input_.find('<', text_start);
  if (text_end == std::string_view::npos) return std::nullopt;
  std::string_view text = input_.substr(text_start, text_end - text_start);
  if (text.find('&') != std::string_view::npos) return std::nullopt;
  // "</qname>" closes it.
  if (input_.size() - text_end < qname.size() + 3 || input_[text_end + 1] != '/' ||
      input_.compare(text_end + 2, qname.size(), qname) != 0 ||
      input_[text_end + 2 + qname.size()] != '>') {
    return std::nullopt;
  }
  pos_ = text_end + qname.size() + 3;
  attrs_.clear();
  name_ = input_.substr(text_end + 2, qname.size());
  text_ = text;
  text_needs_decode_ = false;
  token_ = Token::kEndElement;
  return text;
}

Result<Token> PullParser::read_start_tag() {
  ++pos_;  // '<'
  auto name = read_name();
  if (!name.ok()) return name.error();
  name_ = *name;
  attrs_.clear();
  int depth = static_cast<int>(open_.size()) + 1;

  while (true) {
    skip_ws();
    if (eof()) return fail("unterminated start tag for <" + std::string(name_) + ">");
    char c = peek();
    if (c == '>' || c == '/') break;
    auto attr_name = read_name();
    if (!attr_name.ok()) return attr_name.error();
    skip_ws();
    if (eof() || peek() != '=') {
      return fail("expected '=' after attribute " + std::string(*attr_name));
    }
    ++pos_;
    skip_ws();
    if (eof() || (peek() != '"' && peek() != '\'')) {
      return fail("expected quoted value for attribute " + std::string(*attr_name));
    }
    char quote = input_[pos_++];
    std::size_t vstart = pos_;
    std::size_t vend = input_.find(quote, vstart);
    if (vend == std::string_view::npos) {
      return fail("unterminated attribute value for " + std::string(*attr_name));
    }
    std::string_view raw = input_.substr(vstart, vend - vstart);
    pos_ = vend + 1;
    if (raw.find('&') != std::string_view::npos) {
      // Validate now (so malformed documents are rejected even if nobody
      // reads this attribute); decode later, on demand.
      auto status = validate_entities(raw);
      if (!status.ok()) {
        return status.error().context("in attribute " + std::string(*attr_name));
      }
    }
    for (const PullAttribute& existing : attrs_) {
      if (existing.name == *attr_name) {
        return fail("duplicate attribute " + std::string(*attr_name));
      }
    }
    attrs_.push_back({*attr_name, raw});
    if (attr_name->size() >= 5 && attr_name->compare(0, 5, "xmlns") == 0) {
      if (attr_name->size() == 5) {
        ns_.push_back({std::string_view{}, raw, depth});
      } else if ((*attr_name)[5] == ':') {
        ns_.push_back({attr_name->substr(6), raw, depth});
      }
    }
  }

  if (input_.compare(pos_, 2, "/>") == 0) {
    pos_ += 2;
    pending_end_ = true;
  } else if (peek() == '>') {
    ++pos_;
    pending_end_ = false;
  } else {
    return fail("malformed start tag for <" + std::string(name_) + ">");
  }
  open_.push_back(name_);
  return token_ = Token::kStartElement;
}

Result<Token> PullParser::read_end_tag() {
  pos_ += 2;  // "</"
  auto name = read_name();
  if (!name.ok()) return name.error();
  skip_ws();
  if (eof() || peek() != '>') {
    return fail("malformed end tag </" + std::string(*name) + ">");
  }
  ++pos_;
  if (*name != open_.back()) {
    return fail("mismatched end tag: expected </" + std::string(open_.back()) +
                ">, found </" + std::string(*name) + ">");
  }
  name_ = *name;
  open_.pop_back();
  while (!ns_.empty() && ns_.back().depth > static_cast<int>(open_.size())) {
    ns_.pop_back();
  }
  return token_ = Token::kEndElement;
}

Result<Token> PullParser::read_text_run() {
  std::size_t start = pos_;
  std::size_t end = input_.find('<', start);
  if (end == std::string_view::npos) end = input_.size();
  std::string_view raw = input_.substr(start, end - start);
  pos_ = end;

  bool has_amp = raw.find('&') != std::string_view::npos;
  bool all_ws;
  if (has_amp) {
    auto status = validate_entities(raw, &all_ws);
    if (!status.ok()) {
      return status.error().context("in element <" + std::string(open_.back()) + ">");
    }
  } else {
    all_ws = true;
    for (char c : raw) {
      if (!is_ws(c)) {
        all_ws = false;
        break;
      }
    }
  }
  if (all_ws && options_.ignore_whitespace_text) {
    // Dropped. Recurse via next() to deliver whatever follows.
    return next();
  }
  text_ = raw;
  text_needs_decode_ = has_amp;
  return token_ = Token::kText;
}

std::optional<std::string_view> PullParser::raw_attr(std::string_view qname) const {
  for (const PullAttribute& attr : attrs_) {
    if (attr.name == qname) return attr.raw_value;
  }
  return std::nullopt;
}

Result<std::optional<std::string_view>> PullParser::attr(std::string_view qname,
                                                         std::string& scratch) const {
  auto raw = raw_attr(qname);
  if (!raw) return std::optional<std::string_view>{};
  if (raw->find('&') == std::string_view::npos) {
    return std::optional<std::string_view>{*raw};
  }
  scratch.clear();
  auto status = decode_entities_to(*raw, scratch);
  if (!status.ok()) return status.error();
  return std::optional<std::string_view>{std::string_view(scratch)};
}

Result<std::string_view> PullParser::text(std::string& scratch) const {
  if (!text_needs_decode_) return text_;
  scratch.clear();
  auto status = decode_entities_to(text_, scratch);
  if (!status.ok()) return status.error();
  return std::string_view(scratch);
}

std::optional<std::string_view> PullParser::resolve_namespace(
    std::string_view prefix) const {
  for (auto it = ns_.rbegin(); it != ns_.rend(); ++it) {
    if (it->prefix != prefix) continue;
    if (it->raw_uri.find('&') == std::string_view::npos) return it->raw_uri;
    ns_scratch_.clear();
    if (!decode_entities_to(it->raw_uri, ns_scratch_).ok()) return std::nullopt;
    return std::string_view(ns_scratch_);
  }
  return std::nullopt;
}

std::optional<std::string_view> PullParser::namespace_uri() const {
  return resolve_namespace(prefix_of(name_));
}

Status PullParser::skip_element() {
  int target = static_cast<int>(open_.size()) - 1;
  while (true) {
    auto t = next();
    if (!t.ok()) return t.error();
    if (*t == Token::kEndElement && static_cast<int>(open_.size()) == target) {
      return Status::success();
    }
    if (*t == Token::kEof) return fail("unexpected end of document");
  }
}

Result<std::string_view> PullParser::inner_text(std::string& scratch) {
  int base = static_cast<int>(open_.size());
  std::string_view single{};  // first (and maybe only) undecoded raw slice
  bool have_single = false;
  bool spilled = false;
  while (true) {
    auto t = next();
    if (!t.ok()) return t.error();
    if (*t == Token::kEndElement && static_cast<int>(open_.size()) == base - 1) {
      break;
    }
    switch (*t) {
      case Token::kStartElement: {
        // Direct text only: skip nested elements, matching Node::inner_text.
        auto status = skip_element();
        if (!status.ok()) return status.error();
        break;
      }
      case Token::kText:
      case Token::kCData: {
        bool needs = token_ == Token::kText && text_needs_decode_;
        if (!have_single && !spilled && !needs) {
          single = text_;  // raw input slice: stable across next()
          have_single = true;
          break;
        }
        if (!spilled) {
          scratch.assign(single);
          spilled = true;
          have_single = false;
        }
        if (needs) {
          auto status = decode_entities_to(text_, scratch);
          if (!status.ok()) return status.error();
        } else {
          scratch.append(text_);
        }
        break;
      }
      default:
        return fail("unexpected end of document");
    }
  }
  if (spilled) return std::string_view(scratch);
  if (have_single) return single;
  return std::string_view{};
}

}  // namespace h2::xml
