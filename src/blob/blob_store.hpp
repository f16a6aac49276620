// Content-addressed, reference-counted BLOB store — the paper's BLOB layer.
//
// "Objects in this layer are shared by instances and classes" (§3): two
// documents that put the same bytes get the same BlobId, and the store
// accounts unique (stored) vs logical (sum of references) bytes, which is
// exactly the quantity experiment E4 measures.
//
// Synthetic blobs carry a declared size but no payload, so a simulation can
// model thousands of 10 MB videos without allocating them.
//
// Unreferenced blobs are kept until gc() — they model the paper's "buffer
// spaces" that ephemeral lecture copies occupy until reclaimed (§4).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "blob/chunk.hpp"
#include "blob/media.hpp"
#include "common/hash.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/serialize.hpp"
#include "net/payload.hpp"

namespace wdoc::blob {

struct BlobInfo {
  BlobId id;
  Digest128 digest;
  MediaType type = MediaType::other;
  std::uint64_t size = 0;
  std::uint32_t refs = 0;
  bool resident = false;  // false for synthetic blobs (size-only)
};

class BlobStore {
 public:
  static constexpr std::uint64_t kUnlimited = ~0ull;

  explicit BlobStore(std::uint64_t capacity_bytes = kUnlimited)
      : capacity_(capacity_bytes) {}
  // Unwinds this store's contribution to the process-wide byte gauges, so
  // short-lived per-run stores don't leave them drifting.
  ~BlobStore();
  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  // Disk-backed store: resident blob payloads are written to
  // <dir>/<digest-hex>.blob and reloaded (lazily) on open. Existing blob
  // files are indexed with zero references — owners re-reference them
  // during their own recovery (see core::WebDocDb). Synthetic blobs are
  // never persisted.
  [[nodiscard]] static Result<std::unique_ptr<BlobStore>> open(
      const std::string& dir, std::uint64_t capacity_bytes = kUnlimited);

  // Stores (or dedups against) real bytes; the returned blob holds one
  // reference for the caller.
  [[nodiscard]] Result<BlobId> put(Bytes data, MediaType type);
  // Size-only entry for simulations. Two puts of the same digest dedup.
  [[nodiscard]] Result<BlobId> put_synthetic(const Digest128& digest, std::uint64_t size,
                                             MediaType type);

  [[nodiscard]] Status add_ref(BlobId id);
  // Drops one reference. The blob's bytes stay resident (buffer space) until
  // gc() unless `evict_now`.
  [[nodiscard]] Status release(BlobId id, bool evict_now = false);

  // Lazily faults disk-backed payloads into memory on first access.
  [[nodiscard]] Result<std::span<const std::uint8_t>> get(BlobId id);
  [[nodiscard]] const BlobInfo* info(BlobId id) const;
  [[nodiscard]] std::optional<BlobId> find(const Digest128& digest) const;

  // Frees every zero-reference blob; returns bytes reclaimed.
  [[nodiscard]] std::uint64_t gc();

  // --- partial assembly (chunked transfers) -----------------------------
  // A partial tracks a blob mid-transfer: a bitmap of verified chunks and
  // (for real transfers) the reassembly buffer. When the last chunk lands
  // the blob is re-verified against its whole-content digest and promoted
  // to a regular zero-reference entry (buffer space a document instance
  // claims later, exactly like a completed single-shot blob fetch); a
  // failed whole-blob check resets the partial instead of accepting.
  struct PartialInfo {
    Digest128 digest;
    std::uint64_t size = 0;
    MediaType type = MediaType::other;
    std::uint32_t chunk_bytes = 0;
    std::uint32_t chunks_total = 0;
    std::uint32_t chunks_have = 0;
  };
  enum class ChunkAdd : std::uint8_t {
    accepted = 0,   // new chunk verified and recorded
    duplicate = 1,  // chunk (or whole blob) already present
    completed = 2,  // this chunk finished the blob; it is now a store entry
  };

  // Starts (or re-finds) assembly state for `digest`. Returns false when the
  // blob is already complete in the store, true when a partial now exists.
  // An existing partial with different geometry is an invalid_argument.
  [[nodiscard]] Result<bool> begin_partial(const Digest128& digest, std::uint64_t size,
                                           MediaType type, std::uint32_t chunk_bytes);
  // Verifies and records one chunk. `data` empty = synthetic chunk (the
  // expected digest is then synthetic_chunk_digest(digest, index)). A digest
  // or bounds mismatch is Errc::corrupt and never sets the bitmap bit.
  [[nodiscard]] Result<ChunkAdd> add_chunk(const Digest128& digest, std::uint32_t index,
                                           const Digest128& chunk_digest,
                                           std::span<const std::uint8_t> data);
  [[nodiscard]] const PartialInfo* partial(const Digest128& digest) const;
  [[nodiscard]] bool has_chunk(const Digest128& digest, std::uint32_t index,
                               std::uint32_t chunk_bytes) const;
  // Up to `max` missing chunk indices, ascending (empty for unknown digests).
  [[nodiscard]] std::vector<std::uint32_t> missing_chunks(const Digest128& digest,
                                                          std::uint32_t max) const;
  // Bytes of chunk `index` as a zero-copy slice into the blob's shared
  // buffer — one lecture buffer per blob, whether complete or a partial
  // mid-assembly; serving a chunk bumps a refcount, never copies. Empty
  // payload when the chunk is synthetic. Errc::unavailable when the chunk
  // is not held locally. The slice stays valid (and its bytes immutable)
  // across promotion, eviction, and store destruction: promotion moves the
  // same shared buffer into the complete entry, and the refcount keeps
  // evicted buffers alive until the last slice drops.
  [[nodiscard]] Result<net::Payload> chunk_payload(const Digest128& digest, std::uint32_t index,
                                                   std::uint32_t chunk_bytes);
  // Snapshot of this store's possession of `digest`'s chunks, packed one
  // bit per chunk into `words` starting at absolute bit `bit_offset` (the
  // swarm layer concatenates every blob of a manifest into one
  // transfer-wide bitmap). A complete entry sets every bit, a partial
  // mirrors its assembly bitmap, an unknown digest sets none. `words`
  // must already be sized to cover bit_offset + chunk_count bits;
  // geometry mismatches (different chunk_bytes) contribute nothing.
  void chunk_bits(const Digest128& digest, std::uint64_t size, std::uint32_t chunk_bytes,
                  std::uint64_t bit_offset, std::vector<std::uint64_t>& words) const;
  [[nodiscard]] std::size_t partial_count() const { return partials_.size(); }
  [[nodiscard]] std::uint64_t partial_bytes() const { return partial_bytes_; }

  // --- accounting -------------------------------------------------------
  // Unique bytes on disk.
  [[nodiscard]] std::uint64_t stored_bytes() const { return stored_bytes_; }
  // What a copy-per-reference design would store: sum over blobs of
  // refs * size.
  [[nodiscard]] std::uint64_t logical_bytes() const { return logical_bytes_; }
  [[nodiscard]] std::size_t blob_count() const { return blobs_.size(); }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

 private:
  // Payload buffers are shared (net::Payload slices alias them), so an
  // entry's data is a shared_ptr: replacing or dropping it never moves
  // bytes out from under an outstanding slice.
  struct Entry {
    BlobInfo info;
    std::shared_ptr<Bytes> data;  // null for synthetic and not-yet-faulted blobs
    bool on_disk = false;         // payload exists at blob_path(digest)
    bool loaded = false;          // data holds the payload
  };

  struct Partial {
    PartialInfo info;
    std::vector<bool> have;  // verified chunks
    std::vector<bool> real;  // chunks whose payload bytes are in `data`
    // The lecture buffer: sized once (to the whole blob) on the first real
    // chunk and never reallocated, so verified-chunk slices handed out by
    // chunk_payload stay valid while later chunks land around them. Null
    // while the transfer is synthetic.
    std::shared_ptr<Bytes> data;
    bool any_real = false;
  };

  [[nodiscard]] Result<BlobId> put_entry(const Digest128& digest, std::uint64_t size,
                                         MediaType type, std::shared_ptr<Bytes> data,
                                         bool resident);
  [[nodiscard]] Result<ChunkAdd> promote_partial(Partial& p);
  [[nodiscard]] std::string blob_path(const Digest128& digest) const;
  void remove_entry_files(const Entry& e);

  std::unordered_map<std::uint64_t, Entry> blobs_;  // by id value
  std::unordered_map<Digest128, BlobId> by_digest_;
  std::map<Digest128, Partial> partials_;  // ordered: deterministic iteration
  std::uint64_t partial_bytes_ = 0;
  IdAllocator<BlobId> ids_;
  std::uint64_t capacity_;
  std::uint64_t stored_bytes_ = 0;
  std::uint64_t logical_bytes_ = 0;
  std::string dir_;  // empty = memory-only
};

}  // namespace wdoc::blob
