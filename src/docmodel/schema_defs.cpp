#include "docmodel/schema_defs.hpp"

namespace wdoc::docmodel {

using storage::Column;
using storage::ForeignKey;
using storage::RefAction;
using storage::Schema;
using storage::ValueType;

namespace {

Column col(const char* name, ValueType type, bool nullable = true) {
  Column c;
  c.name = name;
  c.type = type;
  c.nullable = nullable;
  return c;
}

Column indexed(const char* name, ValueType type, bool nullable = true) {
  Column c = col(name, type, nullable);
  c.indexed = true;
  return c;
}

}  // namespace

Schema database_schema() {
  // Database layer: "Database name, Keywords, Author, Version, Date/time,
  // Script names" — the script membership lives in wd_db_script.
  return Schema(kDatabaseTable,
                {
                    col("name", ValueType::text, false),
                    col("keywords", ValueType::text),
                    col("author", ValueType::text),
                    col("version", ValueType::text),
                    col("created_at", ValueType::integer),
                },
                /*primary_key=*/"name");
}

Schema db_script_schema() {
  return Schema(kDbScriptTable,
                {
                    indexed("database_name", ValueType::text, false),
                    indexed("script_name", ValueType::text, false),
                },
                /*primary_key=*/"",
                {
                    ForeignKey{"database_name", kDatabaseTable, "name", RefAction::cascade},
                    ForeignKey{"script_name", kScriptTable, "name", RefAction::cascade},
                });
}

Schema script_schema() {
  // "Script name, Keywords, Author, Version, Date/time, Description,
  //  Expected date/time of completion, Percentage of completion,
  //  Multimedia resources, Starting URLs, Test record names,
  //  Bug report names, Annotation names" — the last four are realized as
  // foreign keys *from* the child tables, per relational practice.
  return Schema(kScriptTable,
                {
                    col("name", ValueType::text, false),
                    indexed("keywords", ValueType::text),
                    indexed("author", ValueType::text),
                    col("version", ValueType::text),
                    col("created_at", ValueType::integer),
                    col("description", ValueType::text),
                    // Verbal descriptions may live in a multimedia resource
                    // file (paper §3); NULL when the description is textual.
                    col("verbal_description_digest", ValueType::text),
                    col("expected_completion", ValueType::integer),
                    col("pct_complete", ValueType::real),
                },
                /*primary_key=*/"name");
}

Schema implementation_schema() {
  return Schema(kImplementationTable,
                {
                    col("starting_url", ValueType::text, false),
                    indexed("script_name", ValueType::text, false),
                    col("author", ValueType::text),
                    col("created_at", ValueType::integer),
                    col("try_number", ValueType::integer),
                },
                /*primary_key=*/"starting_url",
                {
                    ForeignKey{"script_name", kScriptTable, "name", RefAction::cascade},
                });
}

Schema test_record_schema() {
  return Schema(kTestRecordTable,
                {
                    col("name", ValueType::text, false),
                    col("global_scope", ValueType::boolean, false),
                    // "Web traversal messages: windowing messages which
                    // control a Web document traversal" — an encoded event
                    // stream (qa::TraversalLog).
                    col("traversal_messages", ValueType::blob),
                    indexed("script_name", ValueType::text, false),
                    indexed("starting_url", ValueType::text, false),
                    col("created_at", ValueType::integer),
                },
                /*primary_key=*/"name",
                {
                    ForeignKey{"script_name", kScriptTable, "name", RefAction::cascade},
                    ForeignKey{"starting_url", kImplementationTable, "starting_url",
                               RefAction::cascade},
                });
}

Schema bug_report_schema() {
  return Schema(kBugReportTable,
                {
                    col("name", ValueType::text, false),
                    col("qa_engineer", ValueType::text),
                    col("test_procedure", ValueType::text),
                    col("bug_description", ValueType::text),
                    col("bad_urls", ValueType::text),
                    col("missing_objects", ValueType::text),
                    col("inconsistency", ValueType::text),
                    col("redundant_objects", ValueType::text),
                    indexed("test_record_name", ValueType::text, false),
                    col("created_at", ValueType::integer),
                },
                /*primary_key=*/"name",
                {
                    ForeignKey{"test_record_name", kTestRecordTable, "name",
                               RefAction::cascade},
                });
}

Schema annotation_schema() {
  return Schema(kAnnotationTable,
                {
                    col("name", ValueType::text, false),
                    indexed("author", ValueType::text),
                    col("version", ValueType::text),
                    col("created_at", ValueType::integer),
                    indexed("script_name", ValueType::text, false),
                    indexed("starting_url", ValueType::text, false),
                },
                /*primary_key=*/"name",
                {
                    ForeignKey{"script_name", kScriptTable, "name", RefAction::cascade},
                    ForeignKey{"starting_url", kImplementationTable, "starting_url",
                               RefAction::cascade},
                });
}

Schema html_file_schema() {
  return Schema(kHtmlFileTable,
                {
                    col("path", ValueType::text, false),
                    indexed("starting_url", ValueType::text, false),
                    col("content", ValueType::blob),
                    col("size", ValueType::integer),
                },
                /*primary_key=*/"path",
                {
                    ForeignKey{"starting_url", kImplementationTable, "starting_url",
                               RefAction::cascade},
                });
}

Schema program_file_schema() {
  return Schema(kProgramFileTable,
                {
                    col("path", ValueType::text, false),
                    indexed("starting_url", ValueType::text, false),
                    col("language", ValueType::text),  // "Java applets or ASP programs"
                    col("content", ValueType::blob),
                    col("size", ValueType::integer),
                },
                /*primary_key=*/"path",
                {
                    ForeignKey{"starting_url", kImplementationTable, "starting_url",
                               RefAction::cascade},
                });
}

Schema annotation_file_schema() {
  return Schema(kAnnotationFileTable,
                {
                    col("path", ValueType::text, false),
                    indexed("annotation_name", ValueType::text, false),
                    col("ops", ValueType::blob),  // serialized draw-op stream
                    col("size", ValueType::integer),
                },
                /*primary_key=*/"path",
                {
                    ForeignKey{"annotation_name", kAnnotationTable, "name",
                               RefAction::cascade},
                });
}

Schema resource_schema() {
  // BLOB-layer link: owner (script or implementation, by its unique name/URL)
  // -> content digest in the station BlobStore. "Multimedia resources: file
  // descriptors point to multimedia files" (§3).
  return Schema(kResourceTable,
                {
                    indexed("owner_kind", ValueType::text, false),  // script|implementation
                    indexed("owner_name", ValueType::text, false),
                    indexed("digest", ValueType::text, false),
                    col("media_type", ValueType::integer, false),
                    col("size", ValueType::integer, false),
                    // Playout offset within the lecture (used by E3's
                    // deadline schedule); NULL for non-timed resources.
                    col("playout_ms", ValueType::integer),
                });
}

Status install_schemas(storage::Database& db) {
  WDOC_TRY(db.create_table(database_schema()));
  WDOC_TRY(db.create_table(script_schema()));
  WDOC_TRY(db.create_table(db_script_schema()));
  WDOC_TRY(db.create_table(implementation_schema()));
  WDOC_TRY(db.create_table(test_record_schema()));
  WDOC_TRY(db.create_table(bug_report_schema()));
  WDOC_TRY(db.create_table(annotation_schema()));
  WDOC_TRY(db.create_table(html_file_schema()));
  WDOC_TRY(db.create_table(program_file_schema()));
  WDOC_TRY(db.create_table(annotation_file_schema()));
  WDOC_TRY(db.create_table(resource_schema()));
  return Status::ok();
}

}  // namespace wdoc::docmodel
