// XML text to the h2::xml DOM. The tree is built from xml::PullParser
// events, so the DOM, the SOAP fast path and every other consumer share
// one tokenizer and one set of verdicts on malformed input. Whitespace-
// only text, comments, processing instructions and DOCTYPE are dropped;
// CDATA stays a node of its own. Errors carry line/column.
#pragma once

#include <string_view>

#include "util/error.hpp"
#include "xml/dom.hpp"

namespace h2::xml {

/// Parses a complete document (one root element).
Result<Document> parse(std::string_view input);

/// Parses a document and returns just the root element.
Result<std::unique_ptr<Node>> parse_element(std::string_view input);

}  // namespace h2::xml
