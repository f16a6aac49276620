// Per-station store of distribution-layer document objects.
//
// Implements the paper's object life cycle (§4):
//   instance --declare--> class            (BLOBs move to the class; the
//                                           instance keeps pointers)
//   class --instantiate--> new instance    (structure copied, BLOBs shared)
//   remote doc --reference--> local mirror (no bytes)
//   reference --materialize--> ephemeral instance (lecture buffer copy)
//   ephemeral instance --demote--> reference (post-lecture migration)
//
// BLOB bytes live in the station's BlobStore (content addressed, so class/
// instance sharing is physical); structure bytes are accounted here.
#pragma once

#include <map>
#include <optional>

#include "blob/blob_store.hpp"
#include "dist/doc_object.hpp"

namespace wdoc::dist {

struct StoredDoc {
  DocManifest manifest;
  ObjectForm form = ObjectForm::reference;
  bool ephemeral = false;
  std::uint64_t remote_retrievals = 0;  // watermark counter, requester side
  std::vector<BlobId> blob_ids;         // local BlobStore refs (materialized forms)
};

class ObjectStore {
 public:
  explicit ObjectStore(blob::BlobStore& blobs) : blobs_(&blobs) {}

  // --- materialized forms -------------------------------------------------
  // Registers a full instance; blob payloads are registered synthetically
  // (size-accounted) in the BlobStore.
  [[nodiscard]] Status put_instance(const DocManifest& manifest, bool ephemeral);
  // Mirror entry only.
  [[nodiscard]] Status put_reference(const DocManifest& manifest);

  // instance -> declares a document class of the same key. The class shares
  // the instance's BLOBs (one extra reference each).
  [[nodiscard]] Status declare_class(const std::string& doc_key);
  // class -> new instance under `new_key`. Structure is copied; BLOBs are
  // shared. Returns the new instance's manifest.
  [[nodiscard]] Result<DocManifest> instantiate(const std::string& class_key,
                                                const std::string& new_key);

  // Ephemeral instance -> reference; BLOB references drop (bytes linger as
  // reclaimable buffer until the BlobStore gc runs).
  [[nodiscard]] Status demote_to_reference(const std::string& doc_key);
  // Promote a reference to an (ephemeral) instance once payloads arrived.
  [[nodiscard]] Status materialize(const std::string& doc_key, bool ephemeral);

  [[nodiscard]] Status remove(const std::string& doc_key);

  // --- queries -----------------------------------------------------------
  [[nodiscard]] const StoredDoc* doc(const std::string& doc_key) const;
  [[nodiscard]] bool has_materialized(const std::string& doc_key) const;
  [[nodiscard]] std::vector<std::string> keys() const;
  [[nodiscard]] std::size_t doc_count() const { return docs_.size(); }
  [[nodiscard]] std::size_t class_count() const { return classes_.size(); }

  // Watermark bookkeeping: bump and return the retrieval count for a doc
  // this station keeps fetching remotely.
  [[nodiscard]] std::uint64_t note_remote_retrieval(const std::string& doc_key);

  // Structure bytes of materialized docs + classes (BLOB bytes are the
  // BlobStore's stored_bytes()).
  [[nodiscard]] std::uint64_t structure_bytes() const { return structure_bytes_; }
  [[nodiscard]] std::uint64_t disk_bytes() const {
    return structure_bytes_ + blobs_->stored_bytes();
  }
  [[nodiscard]] blob::BlobStore& blobs() { return *blobs_; }

 private:
  [[nodiscard]] Status hold_blobs(const DocManifest& manifest, std::vector<BlobId>& out);
  void drop_blobs(std::vector<BlobId>& ids);

  blob::BlobStore* blobs_;
  std::map<std::string, StoredDoc> docs_;
  std::map<std::string, StoredDoc> classes_;
  std::uint64_t structure_bytes_ = 0;
};

}  // namespace wdoc::dist
