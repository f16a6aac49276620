#include "library/search_index.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>

#include "library/virtual_library.hpp"

namespace wdoc::library {

namespace {

// Occurrences of each token over the entry's title and keywords.
std::map<std::string, std::uint32_t> term_counts(const LibraryEntry& entry) {
  std::map<std::string, std::uint32_t> tf;
  for (const std::string& tok : tokenize(entry.title)) ++tf[tok];
  for (const std::string& kw : entry.keywords) {
    for (const std::string& tok : tokenize(kw)) ++tf[tok];
  }
  return tf;
}

// The first 8 bytes of the course number, big-endian and zero-padded. Keys
// order like the strings do (std::string compares bytes as unsigned char),
// except that two numbers sharing their first 8 bytes get equal keys.
std::uint64_t order_key(const std::string& course_number) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    key <<= 8;
    if (i < course_number.size()) key |= static_cast<unsigned char>(course_number[i]);
  }
  return key;
}

}  // namespace

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!cur.empty()) {
      tokens.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) tokens.push_back(std::move(cur));
  return tokens;
}

void SearchIndex::add_entry(const LibraryEntry& entry) {
  auto [it, fresh] = ids_.try_emplace(entry.course_number, 0);
  if (!fresh) {
    ++courses_[it->second].instances;
    return;
  }
  if (free_ids_.empty()) {
    it->second = static_cast<std::uint32_t>(courses_.size());
    courses_.emplace_back();
  } else {
    it->second = free_ids_.back();
    free_ids_.pop_back();
  }
  const std::uint32_t id = it->second;
  courses_[id] = Course{&entry, order_key(entry.course_number), 1};
  for (const auto& [tok, tf] : term_counts(entry)) {
    postings_[tok].emplace_back(id, 1.0 + std::log2(static_cast<double>(tf)));
  }
  instructors_[entry.instructor].push_back(id);
}

void SearchIndex::remove_entry(const std::string& course_number) {
  auto it = ids_.find(course_number);
  if (it == ids_.end()) return;
  const std::uint32_t id = it->second;
  const LibraryEntry& entry = *courses_[id].entry;
  for (const auto& [tok, tf] : term_counts(entry)) {
    auto pit = postings_.find(tok);
    std::erase_if(pit->second, [id](const auto& p) { return p.first == id; });
    if (pit->second.empty()) postings_.erase(pit);
  }
  auto iit = instructors_.find(entry.instructor);
  std::erase(iit->second, id);
  if (iit->second.empty()) instructors_.erase(iit);
  courses_[id] = Course{};
  free_ids_.push_back(id);
  ids_.erase(it);
}

std::vector<SearchHit> SearchIndex::search(const std::string& query,
                                           std::size_t limit) const {
  // Sums live in an array indexed by course id; `touched` lists the ids
  // that scored, so ranking never scans the whole catalog.
  std::vector<double> scores(courses_.size(), 0.0);
  std::vector<std::uint32_t> touched;
  auto bump = [&](std::uint32_t id, double delta) {
    if (scores[id] == 0.0) touched.push_back(id);
    scores[id] += delta;
  };

  // A repeated query token counts once, so "btree btree" scores like "btree".
  const std::vector<std::string> tokens = tokenize(query);
  const double n_docs = static_cast<double>(ids_.size());
  for (auto tok = tokens.begin(); tok != tokens.end(); ++tok) {
    if (std::find(tokens.begin(), tok, *tok) != tok) continue;
    auto it = postings_.find(*tok);
    if (it == postings_.end()) continue;
    const double df = static_cast<double>(it->second.size());
    const double idf = std::log((1.0 + n_docs) / (1.0 + df)) + 1.0;
    for (const auto& [id, tf_weight] : it->second) bump(id, tf_weight * idf);
  }
  if (auto it = ids_.find(query); it != ids_.end()) bump(it->second, 100.0);
  if (auto it = instructors_.find(query); it != instructors_.end()) {
    for (std::uint32_t id : it->second) bump(id, 10.0);
  }

  // Rank (score, order key, id) triples; only a tie of keys reads the
  // course-number strings.
  struct Ranked {
    double score;
    std::uint64_t key;
    std::uint32_t id;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(touched.size());
  for (std::uint32_t id : touched) {
    ranked.push_back({scores[id], courses_[id].order_key, id});
  }
  const auto better = [this](const Ranked& a, const Ranked& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.key != b.key) return a.key < b.key;
    return courses_[a.id].entry->course_number < courses_[b.id].entry->course_number;
  };
  if (limit > 0 && ranked.size() > limit) {
    std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(limit),
                      ranked.end(), better);
    ranked.resize(limit);
  } else {
    std::sort(ranked.begin(), ranked.end(), better);
  }

  std::vector<SearchHit> hits;
  hits.reserve(ranked.size());
  for (const Ranked& r : ranked) {
    const Course& c = courses_[r.id];
    hits.push_back(SearchHit{c.entry, r.id, c.instances, r.score});
  }
  return hits;
}

std::optional<std::uint32_t> SearchIndex::id_of(const std::string& course_number) const {
  if (auto it = ids_.find(course_number); it != ids_.end()) return it->second;
  return std::nullopt;
}

std::vector<const LibraryEntry*> SearchIndex::taught_by(const std::string& name) const {
  std::vector<const LibraryEntry*> out;
  if (auto it = instructors_.find(name); it != instructors_.end()) {
    for (std::uint32_t id : it->second) out.push_back(courses_[id].entry);
  }
  std::sort(out.begin(), out.end(), [](const LibraryEntry* a, const LibraryEntry* b) {
    return a->course_number < b->course_number;
  });
  return out;
}

}  // namespace wdoc::library
