// LectureSession: the class administrator's orchestration of one lecture's
// life cycle over the distribution layer —
//   begin()   pre-broadcasts the lecture down the m-ary tree;
//   missing() audits which audience stations hold it (the broadcast may
//             have crossed lossy links);
//   repair()  anti-entropy: every missing station pulls up its parent
//             chain, so a dropped push degrades to on-demand rather than
//             failing the lecture;
//   end()     post-lecture migration at every audience station
//             ("duplicated document instances migrate to document
//             references"), returning the buffer bytes reclaimed.
#pragma once

#include "dist/station_node.hpp"

namespace wdoc::dist {

enum class LectureState : std::uint8_t { pending = 0, live = 1, ended = 2 };

class LectureSession {
 public:
  // `instructor` must be the tree root for push to reach everyone;
  // `audience` are the stations expected to hold the lecture while live.
  LectureSession(LectureId id, DocManifest manifest, StationNode& instructor,
                 std::vector<StationNode*> audience);

  [[nodiscard]] LectureId id() const { return id_; }
  [[nodiscard]] const DocManifest& manifest() const { return manifest_; }
  [[nodiscard]] LectureState state() const { return state_; }

  // Pre-broadcast. Idempotent while pending.
  [[nodiscard]] Status begin();

  // Audience stations without a materialized copy right now.
  [[nodiscard]] std::vector<StationId> missing() const;
  [[nodiscard]] bool fully_distributed() const { return missing().empty(); }

  // Issues a pull from every missing station; completion is visible via
  // missing() once the fabric settles. Returns how many pulls were issued.
  [[nodiscard]] Result<std::size_t> repair();

  // Ends the lecture: migration at every audience station. Returns bytes
  // reclaimed across the audience. Idempotent.
  [[nodiscard]] std::uint64_t end();

  [[nodiscard]] std::size_t audience_size() const { return audience_.size(); }
  [[nodiscard]] std::uint64_t repairs_issued() const { return repairs_issued_; }

 private:
  LectureId id_;
  DocManifest manifest_;
  StationNode* instructor_;
  std::vector<StationNode*> audience_;
  LectureState state_ = LectureState::pending;
  std::uint64_t repairs_issued_ = 0;
};

}  // namespace wdoc::dist
