// WebDocDb — the paper's contribution assembled: one station of the
// three-tier distributed Web document database.
//
// A WebDocDb bundles, for one station:
//   * the relational document store (storage::Database + docmodel
//     Repository, the "MS SQL server behind ODBC" tier);
//   * the content-addressed BLOB layer (blob::BlobStore);
//   * the distribution-layer object store and protocol node (dist);
//   * the SCM check-in/out store (scm);
//   * the hierarchical lock manager (locking);
//   * the virtual library front end (library).
//
// Sessions (InstructorSession / StudentSession, sessions.hpp) provide the
// role-specific APIs the paper's tools expose.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "blob/blob_store.hpp"
#include "dist/coordinator.hpp"
#include "dist/station_node.hpp"
#include "docmodel/repository.hpp"
#include "integrity/build.hpp"
#include "library/virtual_library.hpp"
#include "locking/hierarchy_lock.hpp"
#include "scm/scm_store.hpp"
#include "storage/sql.hpp"

namespace wdoc::core {

struct WebDocDbOptions {
  // Directory for the durable WAL/snapshot; empty = in-memory.
  std::string data_dir;
  // Per-station BLOB disk budget.
  std::uint64_t blob_capacity = blob::BlobStore::kUnlimited;
  dist::StationConfig node;
};

class WebDocDb {
 public:
  [[nodiscard]] static Result<std::unique_ptr<WebDocDb>> create(
      const WebDocDbOptions& options = {});

  ~WebDocDb();
  WebDocDb(const WebDocDb&) = delete;
  WebDocDb& operator=(const WebDocDb&) = delete;

  // --- subsystem access ----------------------------------------------------
  [[nodiscard]] storage::Database& database() { return *db_; }
  [[nodiscard]] docmodel::Repository& repository() { return *repo_; }
  [[nodiscard]] blob::BlobStore& blobs() { return *blobs_; }
  [[nodiscard]] dist::ObjectStore& objects() { return *objects_; }
  [[nodiscard]] scm::ScmStore& scm() { return scm_; }
  [[nodiscard]] locking::HierarchyLockManager& locks() { return locks_; }
  [[nodiscard]] library::VirtualLibrary& library() { return library_; }
  // SQL access to the station's relational tier (the paper's "database
  // standard" compatibility surface).
  [[nodiscard]] storage::sql::Engine& sql() { return *sql_; }

  // Mirrors the virtual library into the relational tier so it survives a
  // durable restart (create() reloads it automatically).
  [[nodiscard]] Status persist_library() { return library_.save(*db_); }

  // --- distribution ---------------------------------------------------------
  // Joins a fabric as `self`; afterwards node() is live.
  [[nodiscard]] Status attach(net::Fabric& fabric, StationId self);
  [[nodiscard]] dist::StationNode* node() { return node_.get(); }
  [[nodiscard]] StationId station() const { return self_; }

  // Builds a distribution manifest for a stored implementation: structure
  // bytes from its HTML/program files, BLOB refs from its resources.
  [[nodiscard]] Result<dist::DocManifest> manifest_for(const std::string& starting_url);

  // --- referential integrity ------------------------------------------------
  // Alerts the user must act on after updating `ref`, computed over the
  // current repository contents.
  [[nodiscard]] Result<std::vector<integrity::Alert>> update_alerts(
      const integrity::SciRef& ref);

  // Registers the lockable hierarchy for a script: script -> implementations
  // -> files, so the paper's compatibility table can arbitrate collaborative
  // editing. Returns the script's lock node.
  [[nodiscard]] Result<LockResourceId> register_lock_tree(const std::string& script_name);
  [[nodiscard]] std::optional<LockResourceId> lock_node_of(const std::string& key) const;

 private:
  WebDocDb() = default;
  // After a durable reopen, re-takes the blob references that the resource
  // rows and verbal-description columns logically hold.
  void rehydrate_blob_refs();

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<blob::BlobStore> blobs_;
  std::unique_ptr<docmodel::Repository> repo_;
  std::unique_ptr<dist::ObjectStore> objects_;
  std::unique_ptr<storage::sql::Engine> sql_;
  std::unique_ptr<dist::StationNode> node_;
  scm::ScmStore scm_;
  locking::HierarchyLockManager locks_;
  library::VirtualLibrary library_;
  StationId self_;
  std::map<std::string, LockResourceId> lock_nodes_;
  IdAllocator<LockResourceId> lock_ids_;
};

}  // namespace wdoc::core
