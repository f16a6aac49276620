#include "docmodel/repository.hpp"

#include "storage/query.hpp"

namespace wdoc::docmodel {

using storage::CmpOp;
using storage::Query;
using storage::Value;

namespace {

Value opt_text(const std::optional<std::string>& s) {
  return s ? Value(*s) : Value::null();
}

Value opt_int(const std::optional<std::int64_t>& v) {
  return v ? Value(*v) : Value::null();
}

}  // namespace

// --- database layer --------------------------------------------------------

Status Repository::create_database(const DatabaseInfo& info) {
  return db_->insert(kDatabaseTable, {Value(info.name), Value(info.keywords),
                                      Value(info.author), Value(info.version),
                                      Value(info.created_at)})
      .status();
}

Status Repository::add_script_to_database(const std::string& database_name,
                                          const std::string& script_name) {
  // Reject duplicate membership rows.
  auto existing = db_->query(kDbScriptTable)
                      .where_eq("database_name", Value(database_name))
                      .where_eq("script_name", Value(script_name))
                      .count();
  if (!existing) return existing.status();
  if (existing.value() > 0) {
    return {Errc::already_exists, script_name + " already in " + database_name};
  }
  return db_->insert(kDbScriptTable, {Value(database_name), Value(script_name)}).status();
}

Result<std::vector<std::string>> Repository::scripts_of_database(
    const std::string& database_name) const {
  auto rows = db_->query(kDbScriptTable)
                  .where_eq("database_name", Value(database_name))
                  .select({"script_name"})
                  .run();
  if (!rows) return rows.error();
  std::vector<std::string> out;
  out.reserve(rows.value().size());
  for (const auto& r : rows.value()) out.push_back(r.values[0].as_text());
  return out;
}

std::vector<std::string> Repository::list_databases() const {
  std::vector<std::string> out;
  db_->catalog().table(kDatabaseTable)->scan([&](RowId, const std::vector<Value>& row) {
    out.push_back(row[0].as_text());
    return true;
  });
  return out;
}

// --- scripts ------------------------------------------------------------------

Status Repository::create_script(const ScriptInfo& info) {
  return db_->insert(kScriptTable,
                     {Value(info.name), Value(info.keywords), Value(info.author),
                      Value(info.version), Value(info.created_at),
                      Value(info.description), opt_text(info.verbal_description_digest),
                      Value(info.expected_completion), Value(info.pct_complete)})
      .status();
}

Result<ScriptInfo> Repository::get_script(const std::string& name) const {
  const storage::Table* t = db_->catalog().table(kScriptTable);
  auto rid = t->find_unique("name", Value(name));
  if (!rid) return Error{Errc::not_found, "no script: " + name};
  const auto& row = *t->get(*rid);
  ScriptInfo info;
  info.name = row[0].as_text();
  info.keywords = row[1].is_null() ? "" : row[1].as_text();
  info.author = row[2].is_null() ? "" : row[2].as_text();
  info.version = row[3].is_null() ? "" : row[3].as_text();
  info.created_at = row[4].is_null() ? 0 : row[4].as_int();
  info.description = row[5].is_null() ? "" : row[5].as_text();
  if (!row[6].is_null()) info.verbal_description_digest = row[6].as_text();
  info.expected_completion = row[7].is_null() ? 0 : row[7].as_int();
  info.pct_complete = row[8].is_null() ? 0.0 : row[8].as_real();
  return info;
}

Status Repository::set_script_progress(const std::string& name, double pct_complete) {
  if (pct_complete < 0.0 || pct_complete > 100.0) {
    return {Errc::invalid_argument, "pct_complete out of [0,100]"};
  }
  storage::Table* t = db_->catalog().table(kScriptTable);
  auto rid = t->find_unique("name", Value(name));
  if (!rid) return {Errc::not_found, "no script: " + name};
  return db_->update_column(kScriptTable, *rid, "pct_complete", Value(pct_complete));
}

std::vector<std::string> Repository::list_scripts() const {
  std::vector<std::string> out;
  db_->catalog().table(kScriptTable)->scan([&](RowId, const std::vector<Value>& row) {
    out.push_back(row[0].as_text());
    return true;
  });
  return out;
}

// --- implementations ------------------------------------------------------------

Status Repository::create_implementation(const ImplementationInfo& info) {
  return db_->insert(kImplementationTable,
                     {Value(info.starting_url), Value(info.script_name),
                      Value(info.author), Value(info.created_at), Value(info.try_number)})
      .status();
}

namespace {

ImplementationInfo impl_from_row(const std::vector<Value>& row) {
  ImplementationInfo info;
  info.starting_url = row[0].as_text();
  info.script_name = row[1].as_text();
  info.author = row[2].is_null() ? "" : row[2].as_text();
  info.created_at = row[3].is_null() ? 0 : row[3].as_int();
  info.try_number = row[4].is_null() ? 1 : row[4].as_int();
  return info;
}

}  // namespace

Result<ImplementationInfo> Repository::get_implementation(
    const std::string& starting_url) const {
  const storage::Table* t = db_->catalog().table(kImplementationTable);
  auto rid = t->find_unique("starting_url", Value(starting_url));
  if (!rid) return Error{Errc::not_found, "no implementation: " + starting_url};
  return impl_from_row(*t->get(*rid));
}

Result<std::vector<ImplementationInfo>> Repository::implementations_of(
    const std::string& script_name) const {
  auto rows = db_->query(kImplementationTable)
                  .where_eq("script_name", Value(script_name))
                  .order_by("try_number")
                  .run();
  if (!rows) return rows.error();
  std::vector<ImplementationInfo> out;
  out.reserve(rows.value().size());
  for (const auto& r : rows.value()) out.push_back(impl_from_row(r.values));
  return out;
}

// --- files -----------------------------------------------------------------

Status Repository::add_html_file(const HtmlFileInfo& file) {
  return db_->insert(kHtmlFileTable,
                     {Value(file.path), Value(file.starting_url), Value(file.content),
                      Value(static_cast<std::int64_t>(file.content.size()))})
      .status();
}

Status Repository::add_program_file(const ProgramFileInfo& file) {
  return db_->insert(kProgramFileTable,
                     {Value(file.path), Value(file.starting_url), Value(file.language),
                      Value(file.content),
                      Value(static_cast<std::int64_t>(file.content.size()))})
      .status();
}

Result<std::vector<HtmlFileInfo>> Repository::html_files_of(
    const std::string& starting_url) const {
  auto rows = db_->query(kHtmlFileTable)
                  .where_eq("starting_url", Value(starting_url))
                  .order_by("path")
                  .run();
  if (!rows) return rows.error();
  std::vector<HtmlFileInfo> out;
  for (const auto& r : rows.value()) {
    HtmlFileInfo f;
    f.path = r.values[0].as_text();
    f.starting_url = r.values[1].as_text();
    if (!r.values[2].is_null()) f.content = r.values[2].as_blob();
    out.push_back(std::move(f));
  }
  return out;
}

Result<std::vector<ProgramFileInfo>> Repository::program_files_of(
    const std::string& starting_url) const {
  auto rows = db_->query(kProgramFileTable)
                  .where_eq("starting_url", Value(starting_url))
                  .order_by("path")
                  .run();
  if (!rows) return rows.error();
  std::vector<ProgramFileInfo> out;
  for (const auto& r : rows.value()) {
    ProgramFileInfo f;
    f.path = r.values[0].as_text();
    f.starting_url = r.values[1].as_text();
    f.language = r.values[2].is_null() ? "" : r.values[2].as_text();
    if (!r.values[3].is_null()) f.content = r.values[3].as_blob();
    out.push_back(std::move(f));
  }
  return out;
}

// --- BLOB-layer resources ----------------------------------------------------

Result<BlobId> Repository::attach_resource(const std::string& owner_kind,
                                           const std::string& owner_name, Bytes data,
                                           blob::MediaType type,
                                           std::optional<std::int64_t> playout_ms) {
  std::uint64_t size = data.size();
  Digest128 digest = digest128(std::span<const std::uint8_t>(data));
  auto blob_id = blobs_->put(std::move(data), type);
  if (!blob_id) return blob_id.error();
  auto row = db_->insert(
      kResourceTable,
      {Value(owner_kind), Value(owner_name), Value(digest.to_hex()),
       Value(static_cast<std::int64_t>(type)), Value(static_cast<std::int64_t>(size)),
       opt_int(playout_ms)});
  if (!row) {
    (void)blobs_->release(blob_id.value(), /*evict_now=*/true);
    return row.error();
  }
  return blob_id.value();
}

Result<BlobId> Repository::attach_synthetic_resource(
    const std::string& owner_kind, const std::string& owner_name, const Digest128& digest,
    std::uint64_t size, blob::MediaType type, std::optional<std::int64_t> playout_ms) {
  auto blob_id = blobs_->put_synthetic(digest, size, type);
  if (!blob_id) return blob_id.error();
  auto row = db_->insert(
      kResourceTable,
      {Value(owner_kind), Value(owner_name), Value(digest.to_hex()),
       Value(static_cast<std::int64_t>(type)), Value(static_cast<std::int64_t>(size)),
       opt_int(playout_ms)});
  if (!row) {
    (void)blobs_->release(blob_id.value(), /*evict_now=*/true);
    return row.error();
  }
  return blob_id.value();
}

Result<std::vector<ResourceInfo>> Repository::resources_of(
    const std::string& owner_kind, const std::string& owner_name) const {
  auto rows = db_->query(kResourceTable)
                  .where_eq("owner_name", Value(owner_name))
                  .where_eq("owner_kind", Value(owner_kind))
                  .run();
  if (!rows) return rows.error();
  std::vector<ResourceInfo> out;
  for (const auto& r : rows.value()) {
    ResourceInfo info;
    info.owner_kind = r.values[0].as_text();
    info.owner_name = r.values[1].as_text();
    info.digest_hex = r.values[2].as_text();
    info.media_type = static_cast<blob::MediaType>(r.values[3].as_int());
    info.size = static_cast<std::uint64_t>(r.values[4].as_int());
    if (!r.values[5].is_null()) info.playout_ms = r.values[5].as_int();
    out.push_back(std::move(info));
  }
  return out;
}

// --- testing / QA --------------------------------------------------------------

Status Repository::create_test_record(const TestRecordInfo& info) {
  return db_->insert(kTestRecordTable,
                     {Value(info.name), Value(info.global_scope),
                      Value(info.traversal_messages), Value(info.script_name),
                      Value(info.starting_url), Value(info.created_at)})
      .status();
}

Result<std::vector<std::string>> Repository::test_records_of_script(
    const std::string& script_name) const {
  auto rows = db_->query(kTestRecordTable)
                  .where_eq("script_name", Value(script_name))
                  .select({"name"})
                  .run();
  if (!rows) return rows.error();
  std::vector<std::string> out;
  for (const auto& r : rows.value()) out.push_back(r.values[0].as_text());
  return out;
}

Status Repository::create_bug_report(const BugReportInfo& info) {
  return db_->insert(kBugReportTable,
                     {Value(info.name), Value(info.qa_engineer),
                      Value(info.test_procedure), Value(info.bug_description),
                      Value(info.bad_urls), Value(info.missing_objects),
                      Value(info.inconsistency), Value(info.redundant_objects),
                      Value(info.test_record_name), Value(info.created_at)})
      .status();
}

Result<BugReportInfo> Repository::get_bug_report(const std::string& name) const {
  const storage::Table* t = db_->catalog().table(kBugReportTable);
  auto rid = t->find_unique("name", Value(name));
  if (!rid) return Error{Errc::not_found, "no bug report: " + name};
  const auto& row = *t->get(*rid);
  BugReportInfo info;
  auto text_or_empty = [&](std::size_t i) {
    return row[i].is_null() ? std::string{} : row[i].as_text();
  };
  info.name = row[0].as_text();
  info.qa_engineer = text_or_empty(1);
  info.test_procedure = text_or_empty(2);
  info.bug_description = text_or_empty(3);
  info.bad_urls = text_or_empty(4);
  info.missing_objects = text_or_empty(5);
  info.inconsistency = text_or_empty(6);
  info.redundant_objects = text_or_empty(7);
  info.test_record_name = row[8].as_text();
  info.created_at = row[9].is_null() ? 0 : row[9].as_int();
  return info;
}

Result<std::vector<std::string>> Repository::bug_reports_of(
    const std::string& test_record_name) const {
  auto rows = db_->query(kBugReportTable)
                  .where_eq("test_record_name", Value(test_record_name))
                  .select({"name"})
                  .run();
  if (!rows) return rows.error();
  std::vector<std::string> out;
  for (const auto& r : rows.value()) out.push_back(r.values[0].as_text());
  return out;
}

// --- annotations ----------------------------------------------------------------

Status Repository::create_annotation(const AnnotationInfo& info, const AnnotationDoc& doc) {
  WDOC_TRY(db_->insert(kAnnotationTable,
                       {Value(info.name), Value(info.author), Value(info.version),
                        Value(info.created_at), Value(info.script_name),
                        Value(info.starting_url)})
               .status());
  Bytes encoded = doc.encode();
  auto size = static_cast<std::int64_t>(encoded.size());
  return db_->insert(kAnnotationFileTable,
                     {Value(info.name + ".ann"), Value(info.name), Value(std::move(encoded)),
                      Value(size)})
      .status();
}

Result<std::vector<std::string>> Repository::annotations_of(
    const std::string& starting_url) const {
  auto rows = db_->query(kAnnotationTable)
                  .where_eq("starting_url", Value(starting_url))
                  .select({"name"})
                  .run();
  if (!rows) return rows.error();
  std::vector<std::string> out;
  for (const auto& r : rows.value()) out.push_back(r.values[0].as_text());
  return out;
}

}  // namespace wdoc::docmodel
