// Distribution-layer document objects (paper §4):
//
//   "A Web document may exist in the database at different physical
//    locations in one of the following three forms: Web Document class,
//    Web Document instance, Web Document reference to instance."
//
// A class is the reusable template and owns the BLOBs. An instance holds
// the structure (small: HTML, programs, annotations) plus pointers to the
// class's BLOBs. A reference is a mirror entry naming the home station.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "blob/media.hpp"
#include "common/hash.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/serialize.hpp"

namespace wdoc::dist {

enum class ObjectForm : std::uint8_t {
  document_class = 0,
  instance = 1,
  reference = 2,
};

// One BLOB the document needs: content digest plus size/type, and an
// optional playout offset for timed lecture media.
struct BlobRef {
  Digest128 digest;
  std::uint64_t size = 0;
  blob::MediaType type = blob::MediaType::other;
  std::optional<std::int64_t> playout_ms;

  friend bool operator==(const BlobRef&, const BlobRef&) = default;
};

// Wire/manifest description of a document: everything a station needs to
// decide what to fetch. structure_bytes covers the small copied objects.
struct DocManifest {
  std::string doc_key;  // e.g. the implementation's starting URL
  std::uint64_t structure_bytes = 0;
  std::vector<BlobRef> blobs;
  StationId home;  // station holding the persistent instance/class

  [[nodiscard]] std::uint64_t blob_bytes() const {
    std::uint64_t n = 0;
    for (const BlobRef& b : blobs) n += b.size;
    return n;
  }
  [[nodiscard]] std::uint64_t total_bytes() const { return structure_bytes + blob_bytes(); }

  void serialize(Writer& w) const;
  [[nodiscard]] static Result<DocManifest> deserialize(Reader& r);

  friend bool operator==(const DocManifest&, const DocManifest&) = default;
};

}  // namespace wdoc::dist
