#include "integrity/diagram.hpp"

#include <algorithm>
#include <deque>

namespace wdoc::integrity {

const char* sci_kind_name(SciKind k) {
  switch (k) {
    case SciKind::database: return "database";
    case SciKind::script: return "script";
    case SciKind::implementation: return "implementation";
    case SciKind::html_file: return "html_file";
    case SciKind::program_file: return "program_file";
    case SciKind::resource: return "resource";
    case SciKind::test_record: return "test_record";
    case SciKind::bug_report: return "bug_report";
    case SciKind::annotation: return "annotation";
  }
  return "?";
}

std::string SciRef::to_string() const {
  return std::string(sci_kind_name(kind)) + ":" + name;
}

std::string default_alert_message(const LinkLabel& label, const SciRef& target) {
  return label.label + ": please revisit " + target.to_string();
}

void IntegrityDiagram::add_object(const SciRef& ref) { objects_.insert(ref); }

bool IntegrityDiagram::has_object(const SciRef& ref) const { return objects_.contains(ref); }

Status IntegrityDiagram::add_link(const SciRef& src, const SciRef& dst, LinkLabel label) {
  if (!objects_.contains(src)) {
    return {Errc::not_found, "no such object: " + src.to_string()};
  }
  if (!objects_.contains(dst)) {
    return {Errc::not_found, "no such object: " + dst.to_string()};
  }
  if (has_link(src, dst)) {
    return {Errc::already_exists, src.to_string() + " -> " + dst.to_string()};
  }
  out_[src].push_back(Edge{dst, std::move(label)});
  return Status::ok();
}

bool IntegrityDiagram::has_link(const SciRef& src, const SciRef& dst) const {
  auto it = out_.find(src);
  if (it == out_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const Edge& e) { return e.dst == dst; });
}

std::vector<Alert> IntegrityDiagram::on_update(const SciRef& src) const {
  std::vector<Alert> alerts;
  std::set<SciRef> visited{src};
  std::deque<std::pair<SciRef, std::size_t>> frontier{{src, 0}};
  while (!frontier.empty()) {
    auto [cur, depth] = frontier.front();
    frontier.pop_front();
    auto it = out_.find(cur);
    if (it == out_.end()) continue;
    for (const Edge& e : it->second) {
      if (!visited.insert(e.dst).second) continue;
      Alert a;
      a.source = cur;
      a.target = e.dst;
      a.via_label = e.label.label;
      a.depth = depth + 1;
      a.message = e.label.alert_messages.empty()
                      ? default_alert_message(e.label, e.dst)
                      : e.label.alert_messages.front();
      alerts.push_back(std::move(a));
      frontier.emplace_back(e.dst, depth + 1);
    }
  }
  return alerts;
}

std::vector<std::string> IntegrityDiagram::check_multiplicities(
    const std::function<std::size_t(const SciRef&, const std::string&)>& counter) const {
  std::vector<std::string> violations;
  for (const auto& [src, edges] : out_) {
    std::set<std::string> plus_labels;
    for (const Edge& e : edges) {
      if (e.label.multiplicity == Multiplicity::one_or_more) {
        plus_labels.insert(e.label.label);
      }
    }
    for (const std::string& label : plus_labels) {
      // Objects are never removed, so without a counter the link's own
      // target is a live one.
      if (counter && counter(src, label) == 0) {
        violations.push_back(src.to_string() + " -[" + label +
                             "]+ : requires at least one target, found none");
      }
    }
  }
  return violations;
}

std::size_t IntegrityDiagram::link_count() const {
  std::size_t n = 0;
  for (const auto& [_, edges] : out_) n += edges.size();
  return n;
}

}  // namespace wdoc::integrity
