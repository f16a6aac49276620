#include "dist/lecture.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace wdoc::dist {

const char* lecture_state_name(LectureState s) {
  switch (s) {
    case LectureState::pending: return "pending";
    case LectureState::live: return "live";
    case LectureState::ended: return "ended";
  }
  return "?";
}

LectureSession::LectureSession(LectureId id, DocManifest manifest,
                               StationNode& instructor,
                               std::vector<StationNode*> audience)
    : id_(id),
      manifest_(std::move(manifest)),
      instructor_(&instructor),
      audience_(std::move(audience)) {}

Status LectureSession::begin() {
  if (state_ == LectureState::ended) {
    return {Errc::conflict, "lecture already ended"};
  }
  WDOC_TRY(instructor_->broadcast_push(manifest_));
  state_ = LectureState::live;
  return Status::ok();
}

std::vector<StationId> LectureSession::missing() const {
  std::vector<StationId> out;
  for (StationNode* node : audience_) {
    if (!node->store().has_materialized(manifest_.doc_key)) {
      out.push_back(node->id());
    }
  }
  return out;
}

Result<std::size_t> LectureSession::repair() {
  if (state_ != LectureState::live) {
    return Error{Errc::conflict, "repair() requires a live lecture"};
  }
  std::size_t issued = 0;
  const std::string& key = manifest_.doc_key;
  for (StationNode* node : audience_) {
    if (node->store().has_materialized(key)) continue;
    // A crashed station can't pull; it will be repaired after it restarts
    // (the next repair pass sees it online again).
    if (!node->online()) continue;
    // Seed a reference (with the home) if the push never arrived at all, so
    // the pull has routing information even without a tree.
    if (node->store().doc(key) == nullptr) {
      WDOC_TRY(node->store().put_reference(manifest_));
    }
    Status pulled = Status::ok();
    if (!manifest_.blobs.empty()) {
      // Chunk-granularity anti-entropy: pull only the missing chunks of the
      // missing blobs; repair_pull materializes on completion itself.
      pulled = node->repair_pull(manifest_, [](Result<DocManifest>, SimTime) {});
    } else {
      // Force materialization on arrival regardless of the watermark: the
      // lecture is live, the student needs the physical data now.
      StationNode* target = node;
      std::string doc_key = key;
      pulled = node->fetch(key, [target, doc_key](Result<DocManifest> r, SimTime) {
        if (r.is_ok()) {
          (void)target->store().materialize(doc_key, /*ephemeral=*/true);
        }
      });
    }
    // Unroutable right now (e.g. its whole ancestor chain is suspected
    // dead): skip this round, the next repair pass retries.
    if (!pulled.is_ok()) continue;
    ++issued;
  }
  repairs_issued_ += issued;
  obs::MetricsRegistry::global().counter("dist.anti_entropy_repairs").inc(issued);
  if (issued > 0) {
    obs::FlightRecorder::global().record(
        obs::FlightKind::repair,
        std::to_string(issued) + " repair pull(s) for " + key,
        instructor_->id().value());
  }
  return issued;
}

std::uint64_t LectureSession::end() {
  if (state_ == LectureState::ended) return 0;
  state_ = LectureState::ended;
  std::uint64_t reclaimed = 0;
  for (StationNode* node : audience_) {
    reclaimed += node->end_lecture();
  }
  return reclaimed;
}

}  // namespace wdoc::dist
