// Typed repository over the relational mapping of the Web document
// hierarchy. This is the API the paper's tools (script editor, annotation
// daemon, QA tool, class administrator) program against.
//
// BLOB-layer payloads go to the station's BlobStore; the relational rows
// hold content digests only ("file descriptors point to multimedia files").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "blob/blob_store.hpp"
#include "docmodel/annotation_ops.hpp"
#include "docmodel/schema_defs.hpp"

namespace wdoc::docmodel {

struct DatabaseInfo {
  std::string name;
  std::string keywords;
  std::string author;
  std::string version;
  std::int64_t created_at = 0;
};

struct ScriptInfo {
  std::string name;
  std::string keywords;
  std::string author;
  std::string version;
  std::int64_t created_at = 0;
  std::string description;
  // Digest of a verbal (multimedia) description, if the author recorded one.
  std::optional<std::string> verbal_description_digest;
  std::int64_t expected_completion = 0;
  double pct_complete = 0.0;
};

struct ImplementationInfo {
  std::string starting_url;
  std::string script_name;
  std::string author;
  std::int64_t created_at = 0;
  std::int64_t try_number = 1;
};

struct TestRecordInfo {
  std::string name;
  bool global_scope = false;
  Bytes traversal_messages;
  std::string script_name;
  std::string starting_url;
  std::int64_t created_at = 0;
};

struct BugReportInfo {
  std::string name;
  std::string qa_engineer;
  std::string test_procedure;
  std::string bug_description;
  std::string bad_urls;
  std::string missing_objects;
  std::string inconsistency;
  std::string redundant_objects;
  std::string test_record_name;
  std::int64_t created_at = 0;
};

struct AnnotationInfo {
  std::string name;
  std::string author;
  std::string version;
  std::int64_t created_at = 0;
  std::string script_name;
  std::string starting_url;
};

struct HtmlFileInfo {
  std::string path;
  std::string starting_url;
  Bytes content;
};

struct ProgramFileInfo {
  std::string path;
  std::string starting_url;
  std::string language;
  Bytes content;
};

struct ResourceInfo {
  std::string owner_kind;  // "script" | "implementation"
  std::string owner_name;
  std::string digest_hex;
  blob::MediaType media_type = blob::MediaType::other;
  std::uint64_t size = 0;
  std::optional<std::int64_t> playout_ms;
};

class Repository {
 public:
  Repository(storage::Database& db, blob::BlobStore& blobs) : db_(&db), blobs_(&blobs) {}

  [[nodiscard]] storage::Database& db() { return *db_; }
  [[nodiscard]] blob::BlobStore& blobs() { return *blobs_; }

  // --- database layer ----------------------------------------------------
  [[nodiscard]] Status create_database(const DatabaseInfo& info);
  [[nodiscard]] Status add_script_to_database(const std::string& database_name,
                                              const std::string& script_name);
  [[nodiscard]] Result<std::vector<std::string>> scripts_of_database(
      const std::string& database_name) const;
  [[nodiscard]] std::vector<std::string> list_databases() const;

  // --- scripts -------------------------------------------------------------
  [[nodiscard]] Status create_script(const ScriptInfo& info);
  [[nodiscard]] Result<ScriptInfo> get_script(const std::string& name) const;
  [[nodiscard]] Status set_script_progress(const std::string& name, double pct_complete);
  [[nodiscard]] std::vector<std::string> list_scripts() const;

  // --- implementations -----------------------------------------------------
  [[nodiscard]] Status create_implementation(const ImplementationInfo& info);
  [[nodiscard]] Result<ImplementationInfo> get_implementation(
      const std::string& starting_url) const;
  [[nodiscard]] Result<std::vector<ImplementationInfo>> implementations_of(
      const std::string& script_name) const;

  // --- files -----------------------------------------------------------
  [[nodiscard]] Status add_html_file(const HtmlFileInfo& file);
  [[nodiscard]] Status add_program_file(const ProgramFileInfo& file);
  [[nodiscard]] Result<std::vector<HtmlFileInfo>> html_files_of(
      const std::string& starting_url) const;
  [[nodiscard]] Result<std::vector<ProgramFileInfo>> program_files_of(
      const std::string& starting_url) const;

  // --- BLOB-layer resources ---------------------------------------------
  // Stores real bytes in the BlobStore and links them to the owner.
  [[nodiscard]] Result<BlobId> attach_resource(const std::string& owner_kind,
                                               const std::string& owner_name, Bytes data,
                                               blob::MediaType type,
                                               std::optional<std::int64_t> playout_ms = {});
  // Size-only resource for simulations.
  [[nodiscard]] Result<BlobId> attach_synthetic_resource(
      const std::string& owner_kind, const std::string& owner_name,
      const Digest128& digest, std::uint64_t size, blob::MediaType type,
      std::optional<std::int64_t> playout_ms = {});
  [[nodiscard]] Result<std::vector<ResourceInfo>> resources_of(
      const std::string& owner_kind, const std::string& owner_name) const;

  // --- testing / QA ------------------------------------------------------
  [[nodiscard]] Status create_test_record(const TestRecordInfo& info);
  [[nodiscard]] Result<std::vector<std::string>> test_records_of_script(
      const std::string& script_name) const;
  [[nodiscard]] Status create_bug_report(const BugReportInfo& info);
  [[nodiscard]] Result<BugReportInfo> get_bug_report(const std::string& name) const;
  [[nodiscard]] Result<std::vector<std::string>> bug_reports_of(
      const std::string& test_record_name) const;

  // --- annotations ---------------------------------------------------------
  // Creates the annotation row plus its annotation file holding `doc`.
  [[nodiscard]] Status create_annotation(const AnnotationInfo& info,
                                         const AnnotationDoc& doc);
  [[nodiscard]] Result<std::vector<std::string>> annotations_of(
      const std::string& starting_url) const;

 private:
  storage::Database* db_;
  blob::BlobStore* blobs_;
};

}  // namespace wdoc::docmodel
