#include "dist/doc_object.hpp"

namespace wdoc::dist {

void DocManifest::serialize(Writer& w) const {
  w.str(doc_key);
  w.u64(structure_bytes);
  w.u64(home.value());
  w.u32(static_cast<std::uint32_t>(blobs.size()));
  for (const BlobRef& b : blobs) {
    w.u64(b.digest.lo);
    w.u64(b.digest.hi);
    w.u64(b.size);
    w.u8(static_cast<std::uint8_t>(b.type));
    w.boolean(b.playout_ms.has_value());
    if (b.playout_ms) w.i64(*b.playout_ms);
  }
}

Result<DocManifest> DocManifest::deserialize(Reader& r) {
  DocManifest m;
  auto key = r.str();
  if (!key) return key.error();
  m.doc_key = std::move(key).value();
  auto sb = r.u64();
  if (!sb) return sb.error();
  m.structure_bytes = sb.value();
  auto home = r.u64();
  if (!home) return home.error();
  m.home = StationId{home.value()};
  auto n = r.count(26);  // min encoded BlobRef size
  if (!n) return n.error();
  m.blobs.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    BlobRef b;
    auto lo = r.u64();
    auto hi = r.u64();
    auto size = r.u64();
    auto type = r.u8();
    if (!lo || !hi || !size || !type) return Error{Errc::corrupt, "truncated blob ref"};
    b.digest = Digest128{lo.value(), hi.value()};
    b.size = size.value();
    b.type = static_cast<blob::MediaType>(type.value());
    auto has_playout = r.boolean();
    if (!has_playout) return has_playout.error();
    if (has_playout.value()) {
      auto p = r.i64();
      if (!p) return p.error();
      b.playout_ms = p.value();
    }
    m.blobs.push_back(b);
  }
  return m;
}

}  // namespace wdoc::dist
