#include "core/webdoc_db.hpp"

namespace wdoc::core {

Result<std::unique_ptr<WebDocDb>> WebDocDb::create(const WebDocDbOptions& options) {
  WDOC_TRY(options.node.validate());
  auto db = std::unique_ptr<WebDocDb>(new WebDocDb());
  if (options.data_dir.empty()) {
    db->db_ = storage::Database::in_memory();
  } else {
    auto opened = storage::Database::open(options.data_dir);
    if (!opened) return opened.error();
    db->db_ = std::move(opened).value();
  }
  // Install the document schema unless a durable reopen already has it.
  if (!db->db_->catalog().has_table(docmodel::kScriptTable)) {
    WDOC_TRY(docmodel::install_schemas(*db->db_));
  }
  if (options.data_dir.empty()) {
    db->blobs_ = std::make_unique<blob::BlobStore>(options.blob_capacity);
  } else {
    auto opened =
        blob::BlobStore::open(options.data_dir + "/blobs", options.blob_capacity);
    if (!opened) return opened.error();
    db->blobs_ = std::move(opened).value();
  }
  db->repo_ = std::make_unique<docmodel::Repository>(*db->db_, *db->blobs_);
  db->objects_ = std::make_unique<dist::ObjectStore>(*db->blobs_);
  db->sql_ = std::make_unique<storage::sql::Engine>(*db->db_);
  if (!options.data_dir.empty()) db->rehydrate_blob_refs();
  return db;
}

void WebDocDb::rehydrate_blob_refs() {
  // Blob files reopen with zero references; every row-level pointer into
  // the BLOB layer re-takes its reference so gc() keeps the right payloads.
  auto reref = [&](const std::string& hex) {
    auto digest = Digest128::from_hex(hex);
    if (!digest) return;
    if (auto id = blobs_->find(*digest)) {
      (void)blobs_->add_ref(*id);
    }
  };
  if (const storage::Table* resources = db_->catalog().table(docmodel::kResourceTable)) {
    auto ci = resources->schema().column_index("digest");
    resources->scan([&](RowId, const std::vector<storage::Value>& row) {
      if (!row[*ci].is_null()) reref(row[*ci].as_text());
      return true;
    });
  }
  if (const storage::Table* scripts = db_->catalog().table(docmodel::kScriptTable)) {
    auto ci = scripts->schema().column_index("verbal_description_digest");
    scripts->scan([&](RowId, const std::vector<storage::Value>& row) {
      if (!row[*ci].is_null()) reref(row[*ci].as_text());
      return true;
    });
  }
}

WebDocDb::~WebDocDb() = default;

Status WebDocDb::attach(net::Fabric& fabric, StationId self) {
  if (node_ != nullptr) return {Errc::already_exists, "already attached"};
  self_ = self;
  node_ = std::make_unique<dist::StationNode>(fabric, self, *objects_);
  node_->bind();
  return Status::ok();
}

Result<dist::DocManifest> WebDocDb::manifest_for(const std::string& starting_url) {
  auto impl = repo_->get_implementation(starting_url);
  if (!impl) return impl.error();

  dist::DocManifest manifest;
  manifest.doc_key = starting_url;
  manifest.home = self_;

  auto htmls = repo_->html_files_of(starting_url);
  if (!htmls) return htmls.error();
  for (const auto& f : htmls.value()) manifest.structure_bytes += f.content.size();
  auto progs = repo_->program_files_of(starting_url);
  if (!progs) return progs.error();
  for (const auto& f : progs.value()) manifest.structure_bytes += f.content.size();

  auto resources = repo_->resources_of("implementation", starting_url);
  if (!resources) return resources.error();
  auto script_resources = repo_->resources_of("script", impl.value().script_name);
  if (!script_resources) return script_resources.error();

  auto append = [&](const std::vector<docmodel::ResourceInfo>& rs) -> Status {
    for (const docmodel::ResourceInfo& r : rs) {
      auto digest = Digest128::from_hex(r.digest_hex);
      if (!digest) return {Errc::corrupt, "bad resource digest: " + r.digest_hex};
      dist::BlobRef ref;
      ref.digest = *digest;
      ref.size = r.size;
      ref.type = r.media_type;
      ref.playout_ms = r.playout_ms;
      manifest.blobs.push_back(ref);
    }
    return Status::ok();
  };
  WDOC_TRY(append(resources.value()));
  WDOC_TRY(append(script_resources.value()));
  return manifest;
}

Result<std::vector<integrity::Alert>> WebDocDb::update_alerts(
    const integrity::SciRef& ref) {
  auto diagram = integrity::build_diagram(*repo_);
  if (!diagram) return diagram.error();
  if (!diagram.value().has_object(ref)) {
    return Error{Errc::not_found, "unknown SCI: " + ref.to_string()};
  }
  return diagram.value().on_update(ref);
}

Result<LockResourceId> WebDocDb::register_lock_tree(const std::string& script_name) {
  auto script = repo_->get_script(script_name);
  if (!script) return script.error();
  std::string script_key = "script:" + script_name;
  if (lock_nodes_.contains(script_key)) {
    return Error{Errc::already_exists, "lock tree exists for " + script_name};
  }

  LockResourceId root = lock_ids_.next();
  WDOC_TRY(locks_.add_node(root, std::nullopt));
  lock_nodes_.emplace(script_key, root);

  auto impls = repo_->implementations_of(script_name);
  if (!impls) return impls.error();
  for (const auto& impl : impls.value()) {
    LockResourceId impl_node = lock_ids_.next();
    WDOC_TRY(locks_.add_node(impl_node, root));
    lock_nodes_.emplace("implementation:" + impl.starting_url, impl_node);

    auto htmls = repo_->html_files_of(impl.starting_url);
    if (!htmls) return htmls.error();
    for (const auto& f : htmls.value()) {
      LockResourceId file_node = lock_ids_.next();
      WDOC_TRY(locks_.add_node(file_node, impl_node));
      lock_nodes_.emplace("html:" + f.path, file_node);
    }
    auto progs = repo_->program_files_of(impl.starting_url);
    if (!progs) return progs.error();
    for (const auto& f : progs.value()) {
      LockResourceId file_node = lock_ids_.next();
      WDOC_TRY(locks_.add_node(file_node, impl_node));
      lock_nodes_.emplace("program:" + f.path, file_node);
    }
  }
  return root;
}

std::optional<LockResourceId> WebDocDb::lock_node_of(const std::string& key) const {
  auto it = lock_nodes_.find(key);
  if (it == lock_nodes_.end()) return std::nullopt;
  return it->second;
}

}  // namespace wdoc::core
