#include "transport/endpoint.hpp"

#include "util/strings.hpp"

namespace h2::net {

namespace {

bool scheme_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '+' ||
         c == '-' || c == '.';
}

/// RFC-3986 scheme charset, lower-cased, with at most one '+' splitting a
/// transport prefix from the binding scheme; both halves must be non-empty
/// and start with a letter.
bool valid_scheme(std::string_view scheme) {
  std::size_t plus = std::string_view::npos;
  for (std::size_t i = 0; i < scheme.size(); ++i) {
    if (!scheme_char(scheme[i])) return false;
    if (scheme[i] == '+') {
      if (plus != std::string_view::npos) return false;  // second separator
      plus = i;
    }
  }
  auto starts_alpha = [](std::string_view s) {
    return !s.empty() && s[0] >= 'a' && s[0] <= 'z';
  };
  if (plus == std::string_view::npos) return starts_alpha(scheme);
  return starts_alpha(scheme.substr(0, plus)) && starts_alpha(scheme.substr(plus + 1));
}

}  // namespace

std::uint16_t Endpoint::default_port(std::string_view scheme) {
  // Strip any transport prefix so "tcp+http" defaults like "http".
  auto plus = scheme.find('+');
  if (plus != std::string_view::npos) scheme = scheme.substr(plus + 1);
  if (scheme == "http") return 80;
  return 0;
}

std::string_view Endpoint::binding_scheme() const {
  std::string_view s = scheme;
  auto plus = s.find('+');
  return plus == std::string_view::npos ? s : s.substr(plus + 1);
}

std::string_view Endpoint::transport_scheme() const {
  std::string_view s = scheme;
  auto plus = s.find('+');
  return plus == std::string_view::npos ? std::string_view{} : s.substr(0, plus);
}

Result<Endpoint> Endpoint::parse(std::string_view uri) {
  auto scheme_end = uri.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) {
    return err::parse("endpoint: missing scheme in '" + std::string(uri) + "'");
  }
  Endpoint out;
  out.scheme = str::to_lower(uri.substr(0, scheme_end));
  if (!valid_scheme(out.scheme)) {
    return err::parse("endpoint: bad scheme in '" + std::string(uri) + "'");
  }
  std::string_view rest = uri.substr(scheme_end + 3);
  if (rest.empty()) return err::parse("endpoint: missing host in '" + std::string(uri) + "'");

  auto path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  if (path_start != std::string_view::npos) {
    // "http://h:1/" is a present-but-empty path: same endpoint as no path.
    out.path = std::string(rest.substr(path_start + 1));
  }

  auto colon = authority.find(':');
  if (colon == std::string_view::npos) {
    out.host = std::string(authority);
    out.port = default_port(out.scheme);
  } else {
    out.host = std::string(authority.substr(0, colon));
    // parse_u64 consumes the whole string, so "", "8 0", "+80", "80x" and
    // anything signed all land here; the range check catches 70000.
    auto port = str::parse_u64(authority.substr(colon + 1));
    if (!port.ok() || *port == 0 || *port > 65535) {
      return err::parse("endpoint: bad port in '" + std::string(uri) + "'");
    }
    out.port = static_cast<std::uint16_t>(*port);
  }
  if (out.host.empty()) {
    return err::parse("endpoint: empty host in '" + std::string(uri) + "'");
  }
  return out;
}

std::string Endpoint::to_uri() const {
  std::string out = scheme + "://" + host;
  if (port != 0) {
    out += ':';
    out += std::to_string(port);
  }
  if (!path.empty()) out += "/" + path;
  return out;
}

}  // namespace h2::net
