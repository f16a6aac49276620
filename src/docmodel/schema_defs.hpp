// Relational mapping of the paper's three-layer Web document hierarchy (§3).
//
// Layer 1 (Database layer): wd_database + wd_db_script membership.
// Layer 2 (Document layer): wd_script, wd_implementation, wd_test_record,
//   wd_bug_report, wd_annotation, and the file tables wd_html_file,
//   wd_program_file, wd_annotation_file.
// Layer 3 (BLOB layer): wd_resource rows point into a BlobStore by content
//   digest; the bytes themselves never enter the relational engine.
//
// Foreign keys follow the paper's attribute lists: implementations carry the
// script name; test records carry script + starting URL; bug reports carry
// the test record name; annotations carry script + starting URL.
#pragma once

#include <string>
#include <vector>

#include "storage/database.hpp"

namespace wdoc::docmodel {

// Table names.
inline constexpr const char* kDatabaseTable = "wd_database";
inline constexpr const char* kDbScriptTable = "wd_db_script";
inline constexpr const char* kScriptTable = "wd_script";
inline constexpr const char* kImplementationTable = "wd_implementation";
inline constexpr const char* kTestRecordTable = "wd_test_record";
inline constexpr const char* kBugReportTable = "wd_bug_report";
inline constexpr const char* kAnnotationTable = "wd_annotation";
inline constexpr const char* kHtmlFileTable = "wd_html_file";
inline constexpr const char* kProgramFileTable = "wd_program_file";
inline constexpr const char* kAnnotationFileTable = "wd_annotation_file";
inline constexpr const char* kResourceTable = "wd_resource";

[[nodiscard]] storage::Schema database_schema();
[[nodiscard]] storage::Schema db_script_schema();
[[nodiscard]] storage::Schema script_schema();
[[nodiscard]] storage::Schema implementation_schema();
[[nodiscard]] storage::Schema test_record_schema();
[[nodiscard]] storage::Schema bug_report_schema();
[[nodiscard]] storage::Schema annotation_schema();
[[nodiscard]] storage::Schema html_file_schema();
[[nodiscard]] storage::Schema program_file_schema();
[[nodiscard]] storage::Schema annotation_file_schema();
[[nodiscard]] storage::Schema resource_schema();

// Creates all eleven tables (parents before children).
[[nodiscard]] Status install_schemas(storage::Database& db);

}  // namespace wdoc::docmodel
