// Inverted index over the registry's stored WSDL documents. Three
// families of postings share one interned term table:
//
//   s:<service name>                 dedicated service-name index
//   t:<binding kind>                 dedicated tModel/binding-kind index
//   e:<elem> / a:[<elem>]@<attr> /   XML structure terms extracted from
//   v:[<elem>]@<attr>=<value>        the document's serialized form
//
// A query's XPath::required_terms() map onto the same strings, so
// candidate documents are the *intersection* of a few posting lists
// instead of a walk over every stored document; the compiled query then
// runs only on the candidates (terms are necessary, not sufficient).
//
// Lookups hash: the term table is keyed by string_view (add builds each
// term into one reusable buffer and allocates only for a term it has
// never seen), and the per-doc term table by doc id, so neither walks a
// tree over cold memory.
//
// Posting-list lifecycle: ids append in ascending order (doc ids are
// monotonic), so lists stay sorted; an intersection walks the shortest
// list and gallops forward through each longer one. Removal is
// eager for short lists (erase in place) and amortized for long ones —
// a dead counter marks the entry and the list compacts once dead ids
// reach half its length, so unlink cost stays O(1) amortized while
// readers tolerate (and re-check liveness of) a bounded number of
// stale ids. The registry re-checks liveness anyway: lease expiry makes
// any id stale between wheel ticks.
//
// Not thread-safe: XmlRegistry guards it with its shared_mutex
// (exclusive on mutation, shared on lookup).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "wsdl/model.hpp"
#include "xml/dom.hpp"
#include "xml/xpath.hpp"

namespace h2::reg {

class RegistryIndex {
 public:
  using DocId = std::uint64_t;

  /// Indexes one document: structure terms from its XML form `doc`,
  /// service-name and binding-kind terms from `defs`.
  void add(DocId id, const wsdl::Definitions& defs, const xml::Node& doc);

  /// Unlinks every posting of `id`. No-op for unknown ids.
  void remove(DocId id);

  /// Posting list of documents defining <service name="...">, ascending
  /// doc id. May include a bounded number of removed ids awaiting
  /// compaction — callers filter by liveness (they must regardless).
  std::span<const DocId> service_postings(std::string_view service_name) const;

  /// Posting list of documents carrying a binding of this kind name.
  std::span<const DocId> tmodel_postings(std::string_view tmodel) const;

  /// Candidate doc ids for a compiled query: the intersection of every
  /// required term's postings, ascending. nullopt = the query has no
  /// indexable terms and the caller must scan; an empty vector is a
  /// proof of no matches (some required term appears in no document).
  std::optional<std::vector<DocId>> candidates(const xml::XPath& query) const;

  struct Stats {
    std::size_t terms = 0;         ///< distinct interned terms
    std::size_t postings = 0;      ///< posting entries incl. pending-dead
    std::size_t dead = 0;          ///< pending-dead posting entries
    std::uint64_t compactions = 0; ///< amortized list rewrites so far
  };
  Stats stats() const;

 private:
  using TermId = std::uint32_t;

  struct PostingList {
    std::vector<DocId> ids;  ///< ascending; may hold dead ids
    std::size_t dead = 0;    ///< how many of `ids` were removed
  };

  /// Hashes std::string and string_view alike, so lookups by a view of a
  /// scratch buffer need no std::string.
  struct TermHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view term) const noexcept {
      return std::hash<std::string_view>{}(term);
    }
  };

  TermId intern(std::string_view term);
  const PostingList* find(std::string_view term) const;
  void unlink(TermId term, DocId id);
  void collect_doc_terms(const xml::Node& node, std::string& term,
                         std::vector<TermId>& out);

  std::unordered_map<std::string, TermId, TermHash, std::equal_to<>> term_ids_;
  std::vector<PostingList> lists_;  ///< indexed by TermId
  /// Sorted unique terms per doc, each vector at its exact size.
  std::unordered_map<DocId, std::vector<TermId>> docs_;
  std::size_t postings_ = 0;
  std::size_t dead_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace h2::reg
