// The virtual library's one index and one scorer (paper §5: retrieval
// "according to matching keywords, instructor names, and course
// numbers/titles"). A VirtualLibrary keeps one over its own catalog, and the
// HTTP gateway keeps one over all of its shards, so StudentSession::search
// and GET /search rank alike.
//
// Entries are held by pointer, never copied: each added entry must stay
// alive and in place until the index is destroyed. Adding
// a course that is already present counts one more instance (a replica on
// another shard, which is the identical entry) and keeps the first entry.
//
// Scoring is TF-IDF. A course scores, over the distinct query tokens,
// Σ (1 + log2 tf)·idf with idf = ln((1+N)/(1+df)) + 1, where N is the number
// of distinct courses and df the number holding the token. Both are read
// at query time, so an add needs no rebuild. The retrieval modes add
// +100 when the whole query is the course number and +10 when it is the
// instructor's name. Hits are ordered by score descending, then course
// number ascending: a total order, so equal contents give byte-identical
// results whatever the order the entries were added in. Each course keeps an
// order key computed from its course number alone (the number's first 8
// bytes, big-endian), so ranking breaks score ties on integers and compares
// the strings only when two keys tie.
//
// A hit points at the indexed entry, as taught_by does, and carries the
// course's id, so a caller such as the gateway can keep per-course data in a
// vector indexed by it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace wdoc::library {

struct LibraryEntry;

struct SearchHit {
  const LibraryEntry* entry = nullptr;  // the indexed entry (the first copy added)
  std::uint32_t course_id = 0;          // the index's id of the course
  std::uint32_t instances = 0;          // copies indexed (shards holding the course)
  double score = 0.0;                   // TF-IDF relevance plus retrieval-mode boosts
};

// Lowercased alphanumeric tokens of `text`.
[[nodiscard]] std::vector<std::string> tokenize(const std::string& text);

class SearchIndex {
 public:
  void add_entry(const LibraryEntry& entry);

  // Ranked hits for `query`; at most `limit` (0 = all).
  [[nodiscard]] std::vector<SearchHit> search(const std::string& query,
                                              std::size_t limit = 0) const;
  // `name`'s courses in course-number order.
  [[nodiscard]] std::vector<const LibraryEntry*> taught_by(const std::string& name) const;
  // Distinct courses (the N of idf).
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  // The id of an indexed course: below id_bound(), and stable for the
  // index's life (ids are handed out densely in order of addition).
  [[nodiscard]] std::optional<std::uint32_t> id_of(
      const std::string& course_number) const;
  [[nodiscard]] std::uint32_t id_bound() const {
    return static_cast<std::uint32_t>(courses_.size());
  }

 private:
  struct Course {
    const LibraryEntry* entry = nullptr;
    std::uint64_t order_key = 0;          // see the header comment
    std::uint32_t instances = 0;
  };

  std::vector<Course> courses_;  // course id -> course; scores index by id
  std::unordered_map<std::string, std::uint32_t> ids_;  // course number -> id
  // token -> (course id, 1 + log2 tf)
  std::unordered_map<std::string, std::vector<std::pair<std::uint32_t, double>>> postings_;
  std::unordered_map<std::string, std::vector<std::uint32_t>> instructors_;
};

}  // namespace wdoc::library
