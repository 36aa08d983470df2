#include "registry/index.hpp"

#include <algorithm>

namespace h2::reg {

namespace {

/// Short lists erase dead ids in place; longer ones defer to amortized
/// compaction so a hot term's unlink stays O(1).
constexpr std::size_t kEagerEraseLimit = 64;

void element_term(std::string& out, std::string_view elem) {
  out.assign("e:").append(elem);
}

void attr_term(std::string& out, std::string_view elem, std::string_view attr) {
  out.assign("a:");
  if (elem != "*") out.append(elem);
  out.append(1, '@').append(attr);
}

void value_term(std::string& out, std::string_view elem, std::string_view attr,
                std::string_view value) {
  out.assign("v:");
  if (elem != "*") out.append(elem);
  out.append(1, '@').append(attr).append(1, '=').append(value);
}

/// Key buffer for the const lookups, which run concurrently under the
/// registry's shared lock: one per thread, so a lookup allocates only
/// when its key outgrows every earlier one on that thread.
std::string& lookup_key() {
  thread_local std::string key;
  return key;
}

/// First position in [from, end) whose id is not less than `id`. Gallops
/// 1, 2, 4, ... ahead before a binary search of the last stride, so k
/// seeks across a list of n ids cost O(k log(n/k)): a few dozen probes
/// for a short list against a long one, never worse than a linear merge.
const RegistryIndex::DocId* seek(const RegistryIndex::DocId* from,
                                 const RegistryIndex::DocId* end,
                                 RegistryIndex::DocId id) {
  std::size_t stride = 1;
  while (stride <= static_cast<std::size_t>(end - from) && from[stride - 1] < id) {
    from += stride;
    stride *= 2;
  }
  const std::size_t left = static_cast<std::size_t>(end - from);
  return std::lower_bound(from, from + std::min(stride, left), id);
}

}  // namespace

void RegistryIndex::collect_doc_terms(const xml::Node& node, std::string& term,
                                      std::vector<TermId>& out) {
  if (!node.is_element()) return;
  std::string_view elem = node.local_name();
  element_term(term, elem);
  out.push_back(intern(term));
  for (const xml::Attribute& attr : node.attributes()) {
    // Both the scoped and the unscoped ("any element") spellings, so
    // queries over "*" steps still hit the index.
    attr_term(term, elem, attr.name);
    out.push_back(intern(term));
    attr_term(term, "*", attr.name);
    out.push_back(intern(term));
    value_term(term, elem, attr.name, attr.value);
    out.push_back(intern(term));
    value_term(term, "*", attr.name, attr.value);
    out.push_back(intern(term));
  }
  for (const auto& child : node.children()) {
    collect_doc_terms(*child, term, out);
  }
}

RegistryIndex::TermId RegistryIndex::intern(std::string_view term) {
  auto it = term_ids_.find(term);
  if (it != term_ids_.end()) return it->second;
  TermId id = static_cast<TermId>(lists_.size());
  lists_.emplace_back();
  term_ids_.emplace(std::string(term), id);  // the only allocation: a new term
  return id;
}

const RegistryIndex::PostingList* RegistryIndex::find(std::string_view term) const {
  auto it = term_ids_.find(term);
  if (it == term_ids_.end()) return nullptr;
  return &lists_[it->second];
}

void RegistryIndex::add(DocId id, const wsdl::Definitions& defs,
                        const xml::Node& doc) {
  std::vector<TermId> terms;
  std::string term;
  for (const wsdl::Service& service : defs.services) {
    term.assign("s:").append(service.name);
    terms.push_back(intern(term));
  }
  for (const wsdl::Binding& binding : defs.bindings) {
    term.assign("t:").append(wsdl::to_string(binding.kind));
    terms.push_back(intern(term));
  }
  collect_doc_terms(doc, term, terms);
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  for (TermId term_id : terms) {
    lists_[term_id].ids.push_back(id);  // ids are monotonic: stays sorted
  }
  postings_ += terms.size();
  // Stored at its exact size: `terms` still holds its push-back slack.
  docs_.emplace(id, std::vector<TermId>(terms.begin(), terms.end()));
}

void RegistryIndex::unlink(TermId term, DocId id) {
  PostingList& list = lists_[term];
  if (list.ids.size() <= kEagerEraseLimit) {
    auto it = std::find(list.ids.begin(), list.ids.end(), id);
    if (it != list.ids.end()) {
      list.ids.erase(it);
      --postings_;
    }
    return;
  }
  ++list.dead;
  ++dead_;
  if (list.dead * 2 < list.ids.size()) return;
  // Compact: a posting is live iff its doc is still indexed. Other
  // pending-dead ids of this list drop along the way.
  std::size_t kept = 0;
  for (DocId candidate : list.ids) {
    if (docs_.count(candidate) != 0) list.ids[kept++] = candidate;
  }
  std::size_t dropped = list.ids.size() - kept;
  list.ids.resize(kept);
  list.ids.shrink_to_fit();
  postings_ -= dropped;
  dead_ -= list.dead;
  list.dead = 0;
  ++compactions_;
}

void RegistryIndex::remove(DocId id) {
  auto it = docs_.find(id);
  if (it == docs_.end()) return;
  std::vector<TermId> terms = std::move(it->second);
  // Erase the doc first: compaction inside unlink treats "not in docs_"
  // as dead, which must include the id being removed right now.
  docs_.erase(it);
  for (TermId term : terms) unlink(term, id);
}

std::span<const RegistryIndex::DocId> RegistryIndex::service_postings(
    std::string_view service_name) const {
  std::string& key = lookup_key();
  key.assign("s:").append(service_name);
  const PostingList* list = find(key);
  return list == nullptr ? std::span<const DocId>() : std::span(list->ids);
}

std::span<const RegistryIndex::DocId> RegistryIndex::tmodel_postings(
    std::string_view tmodel) const {
  std::string& key = lookup_key();
  key.assign("t:").append(tmodel);
  const PostingList* list = find(key);
  return list == nullptr ? std::span<const DocId>() : std::span(list->ids);
}

std::optional<std::vector<RegistryIndex::DocId>> RegistryIndex::candidates(
    const xml::XPath& query) const {
  auto terms = query.required_terms();
  if (terms.empty()) return std::nullopt;  // nothing indexable: caller scans
  std::vector<const PostingList*> lists;
  lists.reserve(terms.size());
  std::string& key = lookup_key();
  for (const auto& term : terms) {
    switch (term.kind) {
      case xml::XPath::IndexTerm::Kind::kElement:
        element_term(key, term.element);
        break;
      case xml::XPath::IndexTerm::Kind::kAttrExists:
        attr_term(key, term.element, term.attr);
        break;
      case xml::XPath::IndexTerm::Kind::kAttrEquals:
        value_term(key, term.element, term.attr, term.value);
        break;
    }
    const PostingList* list = find(key);
    // A required term no live-or-dead doc ever produced: provably empty.
    if (list == nullptr) return std::vector<DocId>();
    lists.push_back(list);
  }
  // Walk the shortest list and seek each of its ids in the longer ones —
  // the usual case is one highly selective value term against a couple
  // of broad element terms, where a merge would read every broad id.
  std::sort(lists.begin(), lists.end(),
            [](const PostingList* a, const PostingList* b) {
              return a->ids.size() < b->ids.size();
            });
  std::vector<const DocId*> cursors;
  cursors.reserve(lists.size());
  for (const PostingList* list : lists) cursors.push_back(list->ids.data());
  std::vector<DocId> result;
  result.reserve(lists[0]->ids.size());
  for (DocId id : lists[0]->ids) {
    bool in_all = true;
    for (std::size_t i = 1; i < lists.size() && in_all; ++i) {
      const DocId* end = lists[i]->ids.data() + lists[i]->ids.size();
      cursors[i] = seek(cursors[i], end, id);
      if (cursors[i] == end) return result;  // list i holds nothing >= id
      in_all = *cursors[i] == id;
    }
    if (in_all) result.push_back(id);
  }
  return result;
}

RegistryIndex::Stats RegistryIndex::stats() const {
  return Stats{term_ids_.size(), postings_, dead_, compactions_};
}

}  // namespace h2::reg
