#include "dist/object_store.hpp"

namespace wdoc::dist {

Status ObjectStore::hold_blobs(const DocManifest& manifest, std::vector<BlobId>& out) {
  out.reserve(manifest.blobs.size());
  for (const BlobRef& b : manifest.blobs) {
    auto id = blobs_->put_synthetic(b.digest, b.size, b.type);
    if (!id) {
      // Roll back partial holds.
      drop_blobs(out);
      return id.status();
    }
    out.push_back(id.value());
  }
  return Status::ok();
}

void ObjectStore::drop_blobs(std::vector<BlobId>& ids) {
  for (BlobId id : ids) {
    (void)blobs_->release(id);
  }
  ids.clear();
}

Status ObjectStore::put_instance(const DocManifest& manifest, bool ephemeral) {
  if (docs_.contains(manifest.doc_key)) {
    return {Errc::already_exists, "doc exists: " + manifest.doc_key};
  }
  StoredDoc doc;
  doc.manifest = manifest;
  doc.form = ObjectForm::instance;
  doc.ephemeral = ephemeral;
  WDOC_TRY(hold_blobs(manifest, doc.blob_ids));
  structure_bytes_ += manifest.structure_bytes;
  docs_.emplace(manifest.doc_key, std::move(doc));
  return Status::ok();
}

Status ObjectStore::put_reference(const DocManifest& manifest) {
  if (docs_.contains(manifest.doc_key)) {
    return {Errc::already_exists, "doc exists: " + manifest.doc_key};
  }
  StoredDoc doc;
  doc.manifest = manifest;
  doc.form = ObjectForm::reference;
  docs_.emplace(manifest.doc_key, std::move(doc));
  return Status::ok();
}

Status ObjectStore::declare_class(const std::string& doc_key) {
  auto it = docs_.find(doc_key);
  if (it == docs_.end()) return {Errc::not_found, "no doc: " + doc_key};
  if (it->second.form != ObjectForm::instance) {
    return {Errc::conflict, "declare_class requires an instance"};
  }
  if (classes_.contains(doc_key)) {
    return {Errc::already_exists, "class exists: " + doc_key};
  }
  StoredDoc cls;
  cls.manifest = it->second.manifest;
  cls.form = ObjectForm::document_class;
  // "The newly created class contains the structure of the document
  // instance and all multimedia data" — the class takes its own BLOB
  // references; physically the bytes are shared via content addressing.
  WDOC_TRY(hold_blobs(cls.manifest, cls.blob_ids));
  structure_bytes_ += cls.manifest.structure_bytes;
  classes_.emplace(doc_key, std::move(cls));
  return Status::ok();
}

Result<DocManifest> ObjectStore::instantiate(const std::string& class_key,
                                             const std::string& new_key) {
  auto cit = classes_.find(class_key);
  if (cit == classes_.end()) return Error{Errc::not_found, "no class: " + class_key};
  if (docs_.contains(new_key)) {
    return Error{Errc::already_exists, "doc exists: " + new_key};
  }
  // "Structure of the document class is copied to the new document instance
  // and pointers to multimedia data are created."
  StoredDoc doc;
  doc.manifest = cit->second.manifest;
  doc.manifest.doc_key = new_key;
  doc.form = ObjectForm::instance;
  WDOC_TRY(hold_blobs(doc.manifest, doc.blob_ids));
  structure_bytes_ += doc.manifest.structure_bytes;
  DocManifest out = doc.manifest;
  docs_.emplace(new_key, std::move(doc));
  return out;
}

Status ObjectStore::demote_to_reference(const std::string& doc_key) {
  auto it = docs_.find(doc_key);
  if (it == docs_.end()) return {Errc::not_found, "no doc: " + doc_key};
  if (it->second.form == ObjectForm::reference) return Status::ok();  // idempotent
  drop_blobs(it->second.blob_ids);
  structure_bytes_ -= it->second.manifest.structure_bytes;
  it->second.form = ObjectForm::reference;
  it->second.ephemeral = false;
  return Status::ok();
}

Status ObjectStore::materialize(const std::string& doc_key, bool ephemeral) {
  auto it = docs_.find(doc_key);
  if (it == docs_.end()) return {Errc::not_found, "no doc: " + doc_key};
  if (it->second.form != ObjectForm::reference) return Status::ok();  // already live
  WDOC_TRY(hold_blobs(it->second.manifest, it->second.blob_ids));
  structure_bytes_ += it->second.manifest.structure_bytes;
  it->second.form = ObjectForm::instance;
  it->second.ephemeral = ephemeral;
  return Status::ok();
}

Status ObjectStore::remove(const std::string& doc_key) {
  auto it = docs_.find(doc_key);
  if (it == docs_.end()) return {Errc::not_found, "no doc: " + doc_key};
  if (it->second.form != ObjectForm::reference) {
    drop_blobs(it->second.blob_ids);
    structure_bytes_ -= it->second.manifest.structure_bytes;
  }
  docs_.erase(it);
  return Status::ok();
}

const StoredDoc* ObjectStore::doc(const std::string& doc_key) const {
  auto it = docs_.find(doc_key);
  return it == docs_.end() ? nullptr : &it->second;
}

bool ObjectStore::has_materialized(const std::string& doc_key) const {
  const StoredDoc* d = doc(doc_key);
  return d != nullptr && d->form == ObjectForm::instance;
}

std::vector<std::string> ObjectStore::keys() const {
  std::vector<std::string> out;
  out.reserve(docs_.size());
  for (const auto& [key, _] : docs_) out.push_back(key);
  return out;
}

std::uint64_t ObjectStore::note_remote_retrieval(const std::string& doc_key) {
  auto it = docs_.find(doc_key);
  if (it == docs_.end()) return 0;
  return ++it->second.remote_retrievals;
}

}  // namespace wdoc::dist
