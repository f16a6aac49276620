#include "core/sessions.hpp"

namespace wdoc::core {

Status InstructorSession::author_course(const CourseSpec& spec) {
  docmodel::Repository& repo = db_->repository();

  docmodel::ScriptInfo script;
  script.name = spec.script_name;
  script.keywords = spec.keywords;
  script.author = name_;
  script.version = "1.0";
  script.created_at = spec.now;
  script.description = spec.description;
  script.expected_completion = spec.now;
  script.pct_complete = 100.0;
  WDOC_TRY(repo.create_script(script));

  docmodel::ImplementationInfo impl;
  impl.starting_url = spec.starting_url;
  impl.script_name = spec.script_name;
  impl.author = name_;
  impl.created_at = spec.now;
  impl.try_number = 1;
  WDOC_TRY(repo.create_implementation(impl));

  for (const auto& [path, body] : spec.html_pages) {
    docmodel::HtmlFileInfo file;
    file.path = path;
    file.starting_url = spec.starting_url;
    file.content.assign(body.begin(), body.end());
    WDOC_TRY(repo.add_html_file(file));
  }
  for (const CourseSpec::ResourceSpec& r : spec.resources) {
    WDOC_TRY(repo.attach_synthetic_resource("implementation", spec.starting_url,
                                            r.digest, r.size, r.type, r.playout_ms)
                 .status());
  }

  // SCM: the script text is the versioned artifact.
  Bytes script_body(spec.description.begin(), spec.description.end());
  WDOC_TRY(db_->scm().add_item("script:" + spec.script_name, std::move(script_body),
                               name_, spec.now));
  WDOC_TRY(db_->register_lock_tree(spec.script_name).status());

  library::LibraryEntry entry;
  entry.course_number = spec.course_number;
  entry.title = spec.title;
  entry.instructor = name_;
  for (const std::string& kw : library::tokenize(spec.keywords)) {
    entry.keywords.push_back(kw);
  }
  entry.script_name = spec.script_name;
  entry.starting_url = spec.starting_url;
  entry.added_at = spec.now;
  WDOC_TRY(db_->library().add_entry(entry));
  return Status::ok();
}

Status InstructorSession::annotate(const std::string& starting_url,
                                   const docmodel::AnnotationDoc& doc,
                                   const std::string& annotation_name, std::int64_t now) {
  auto impl = db_->repository().get_implementation(starting_url);
  if (!impl) return impl.status();
  docmodel::AnnotationInfo info;
  info.name = annotation_name;
  info.author = name_;
  info.version = "1.0";
  info.created_at = now;
  info.script_name = impl.value().script_name;
  info.starting_url = starting_url;
  return db_->repository().create_annotation(info, doc);
}

Status InstructorSession::record_test(const std::string& starting_url,
                                      const docmodel::TraversalLog& log,
                                      const std::string& test_name, std::int64_t now,
                                      const std::string& bug_description) {
  auto impl = db_->repository().get_implementation(starting_url);
  if (!impl) return impl.status();
  docmodel::TestRecordInfo record;
  record.name = test_name;
  record.global_scope = false;
  record.traversal_messages = log.encode();
  record.script_name = impl.value().script_name;
  record.starting_url = starting_url;
  record.created_at = now;
  WDOC_TRY(db_->repository().create_test_record(record));

  if (!bug_description.empty()) {
    docmodel::BugReportInfo bug;
    bug.name = test_name + "-bug1";
    bug.qa_engineer = name_;
    bug.test_procedure = "traversal replay of " + test_name;
    bug.bug_description = bug_description;
    bug.test_record_name = test_name;
    bug.created_at = now;
    WDOC_TRY(db_->repository().create_bug_report(bug));
  }
  return Status::ok();
}

Status InstructorSession::begin_edit(const std::string& script_name, std::int64_t now) {
  auto node = db_->lock_node_of("script:" + script_name);
  if (!node) return {Errc::not_found, "no lock tree for " + script_name};
  WDOC_TRY(db_->locks().lock(user_, *node, locking::Access::write));
  Status s = db_->scm().check_out("script:" + script_name, user_, /*write=*/true, now);
  if (!s.is_ok()) {
    (void)db_->locks().unlock(user_, *node);
    return s;
  }
  return Status::ok();
}

Status InstructorSession::finish_edit(const std::string& script_name, Bytes new_content,
                                      const std::string& comment, std::int64_t now) {
  auto node = db_->lock_node_of("script:" + script_name);
  if (!node) return {Errc::not_found, "no lock tree for " + script_name};
  auto meta = db_->scm().check_in("script:" + script_name, user_, std::move(new_content),
                                  comment, now);
  if (!meta) return meta.status();
  return db_->locks().unlock(user_, *node);
}

Result<std::vector<integrity::Alert>> InstructorSession::alerts_for_script(
    const std::string& script_name) {
  return db_->update_alerts(integrity::SciRef{integrity::SciKind::script, script_name});
}

// --- StudentSession ----------------------------------------------------------

std::vector<library::SearchHit> StudentSession::search(const std::string& query) const {
  return db_->library().search(query);
}

Status StudentSession::check_out(const std::string& course_number, std::int64_t now) {
  return db_->library().check_out(course_number, user_, now);
}

Status StudentSession::check_in(const std::string& course_number, std::int64_t now) {
  return db_->library().check_in(course_number, user_, now);
}

library::AssessmentReport StudentSession::assessment() const {
  return db_->library().assess(user_);
}

}  // namespace wdoc::core
