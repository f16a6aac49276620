// Referential-integrity diagram (paper §3).
//
// "Each link in the diagram connects two objects. If the source object is
// updated, the system will trigger a message which alerts the user to update
// the destination object. Each link is associated with a label [and] a
// reference multiplicity indicated in its superscript: '+' means one or
// more, '*' means zero or more."
//
// The diagram is a labelled digraph over SCI references; on_update performs
// a cycle-safe BFS and emits one alert per reachable object, closest first.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace wdoc::integrity {

enum class SciKind : std::uint8_t {
  database = 0,
  script = 1,
  implementation = 2,
  html_file = 3,
  program_file = 4,
  resource = 5,
  test_record = 6,
  bug_report = 7,
  annotation = 8,
};

[[nodiscard]] const char* sci_kind_name(SciKind k);

struct SciRef {
  SciKind kind = SciKind::script;
  std::string name;

  auto operator<=>(const SciRef&) const = default;
  [[nodiscard]] std::string to_string() const;
};

enum class Multiplicity : std::uint8_t {
  one_or_more = 0,  // "+"
  zero_or_more = 1, // "*"
};

struct LinkLabel {
  std::string label;                      // e.g. "implements", "uses"
  Multiplicity multiplicity = Multiplicity::zero_or_more;
  std::vector<std::string> alert_messages;  // templates; %s = target name
};

struct Alert {
  SciRef source;   // the object whose update triggered this alert
  SciRef target;   // the object the user should revisit
  std::string message;
  std::string via_label;
  std::size_t depth = 1;  // 1 = direct dependent
};

class IntegrityDiagram {
 public:
  void add_object(const SciRef& ref);
  [[nodiscard]] bool has_object(const SciRef& ref) const;

  [[nodiscard]] Status add_link(const SciRef& src, const SciRef& dst, LinkLabel label);
  [[nodiscard]] bool has_link(const SciRef& src, const SciRef& dst) const;

  // All alerts triggered by updating `src`, breadth-first (direct dependents
  // first). Each reachable object is alerted exactly once even through
  // diamonds or cycles.
  [[nodiscard]] std::vector<Alert> on_update(const SciRef& src) const;

  // Checks that every '+' link's source has >=1 target with that label, as
  // counted by `counter(src, label)` (objects live outside the diagram);
  // without a counter each link is its own live target. Returns violation
  // descriptions.
  [[nodiscard]] std::vector<std::string> check_multiplicities(
      const std::function<std::size_t(const SciRef&, const std::string&)>& counter) const;

  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }
  [[nodiscard]] std::size_t link_count() const;

 private:
  struct Edge {
    SciRef dst;
    LinkLabel label;
  };

  std::set<SciRef> objects_;
  std::map<SciRef, std::vector<Edge>> out_;
};

// Default alert message: "<label>: please revisit <target>".
[[nodiscard]] std::string default_alert_message(const LinkLabel& label, const SciRef& target);

}  // namespace wdoc::integrity
