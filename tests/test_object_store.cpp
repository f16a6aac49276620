// Object-store tests: the class/instance/reference life cycle, BLOB
// sharing across declare/instantiate, demotion (migration) and disk
// accounting.
#include <gtest/gtest.h>

#include "dist/object_store.hpp"

namespace wdoc::dist {
namespace {

DocManifest make_manifest(const std::string& key, std::uint64_t structure,
                          std::initializer_list<std::pair<const char*, std::uint64_t>>
                              blobs) {
  DocManifest m;
  m.doc_key = key;
  m.structure_bytes = structure;
  m.home = StationId{1};
  for (const auto& [name, size] : blobs) {
    BlobRef ref;
    ref.digest = digest128(name);
    ref.size = size;
    ref.type = blob::MediaType::video;
    m.blobs.push_back(ref);
  }
  return m;
}

class ObjectStoreFixture : public ::testing::Test {
 protected:
  blob::BlobStore blobs_;
  ObjectStore store_{blobs_};
};

TEST_F(ObjectStoreFixture, ManifestSerializationRoundTrip) {
  DocManifest m = make_manifest("http://x/1", 5000, {{"v1", 1000}, {"v2", 2000}});
  m.blobs[0].playout_ms = 60000;
  Writer w;
  m.serialize(w);
  Reader r(w.data());
  auto decoded = DocManifest::deserialize(r);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), m);
  EXPECT_EQ(decoded.value().total_bytes(), 8000u);
}

TEST_F(ObjectStoreFixture, PutInstanceAccountsBytes) {
  auto m = make_manifest("doc", 1000, {{"a", 500}, {"b", 300}});
  ASSERT_TRUE(store_.put_instance(m, false).is_ok());
  EXPECT_EQ(store_.structure_bytes(), 1000u);
  EXPECT_EQ(blobs_.stored_bytes(), 800u);
  EXPECT_EQ(store_.disk_bytes(), 1800u);
  const StoredDoc* d = store_.doc("doc");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->form, ObjectForm::instance);
  EXPECT_FALSE(d->ephemeral);
  EXPECT_TRUE(store_.has_materialized("doc"));
  EXPECT_EQ(store_.put_instance(m, false).code(), Errc::already_exists);
}

TEST_F(ObjectStoreFixture, ReferenceHoldsNoBytes) {
  auto m = make_manifest("doc", 1000, {{"a", 500}});
  ASSERT_TRUE(store_.put_reference(m).is_ok());
  EXPECT_EQ(store_.disk_bytes(), 0u);
  EXPECT_FALSE(store_.has_materialized("doc"));
  EXPECT_EQ(store_.doc("doc")->form, ObjectForm::reference);
}

TEST_F(ObjectStoreFixture, DeclareClassSharesBlobsPhysically) {
  // "This design allows the BLOBs to be stored in a class [and] shared by
  // different instances instantiated from the class."
  auto m = make_manifest("doc", 1000, {{"a", 5000}});
  ASSERT_TRUE(store_.put_instance(m, false).is_ok());
  ASSERT_TRUE(store_.declare_class("doc").is_ok());
  // Structure counted twice (instance + class), blob bytes once.
  EXPECT_EQ(store_.structure_bytes(), 2000u);
  EXPECT_EQ(blobs_.stored_bytes(), 5000u);
  EXPECT_EQ(blobs_.logical_bytes(), 10000u);
  EXPECT_EQ(store_.class_count(), 1u);
  EXPECT_EQ(store_.declare_class("doc").code(), Errc::already_exists);
}

TEST_F(ObjectStoreFixture, DeclareClassRequiresInstance) {
  auto m = make_manifest("doc", 100, {});
  ASSERT_TRUE(store_.put_reference(m).is_ok());
  EXPECT_EQ(store_.declare_class("doc").code(), Errc::conflict);
  EXPECT_EQ(store_.declare_class("ghost").code(), Errc::not_found);
}

TEST_F(ObjectStoreFixture, InstantiateCopiesStructureSharesBlobs) {
  auto m = make_manifest("template", 1000, {{"a", 8000}});
  ASSERT_TRUE(store_.put_instance(m, false).is_ok());
  ASSERT_TRUE(store_.declare_class("template").is_ok());

  std::uint64_t blob_bytes_before = blobs_.stored_bytes();
  auto inst = store_.instantiate("template", "course-copy");
  ASSERT_TRUE(inst.is_ok());
  EXPECT_EQ(inst.value().doc_key, "course-copy");
  // No new blob bytes: pointers only.
  EXPECT_EQ(blobs_.stored_bytes(), blob_bytes_before);
  // Structure copied: instance + class + copy.
  EXPECT_EQ(store_.structure_bytes(), 3000u);
  EXPECT_TRUE(store_.has_materialized("course-copy"));
  EXPECT_EQ(store_.instantiate("template", "course-copy").code(),
            Errc::already_exists);
  EXPECT_EQ(store_.instantiate("ghost", "x").code(), Errc::not_found);
}

TEST_F(ObjectStoreFixture, DemoteReleasesBlobRefsAndGcReclaims) {
  auto m = make_manifest("doc", 1000, {{"a", 5000}});
  ASSERT_TRUE(store_.put_instance(m, true).is_ok());
  ASSERT_TRUE(store_.demote_to_reference("doc").is_ok());
  EXPECT_EQ(store_.doc("doc")->form, ObjectForm::reference);
  EXPECT_EQ(store_.structure_bytes(), 0u);
  // Blob bytes linger as reclaimable buffer until gc.
  EXPECT_EQ(blobs_.stored_bytes(), 5000u);
  EXPECT_EQ(blobs_.gc(), 5000u);
  EXPECT_EQ(store_.disk_bytes(), 0u);
  // Idempotent on references.
  EXPECT_TRUE(store_.demote_to_reference("doc").is_ok());
}

TEST_F(ObjectStoreFixture, DemoteKeepsSharedBlobsAlive) {
  auto m1 = make_manifest("doc1", 100, {{"shared", 5000}});
  auto m2 = make_manifest("doc2", 100, {{"shared", 5000}});
  ASSERT_TRUE(store_.put_instance(m1, true).is_ok());
  ASSERT_TRUE(store_.put_instance(m2, false).is_ok());
  ASSERT_TRUE(store_.demote_to_reference("doc1").is_ok());
  EXPECT_EQ(blobs_.gc(), 0u);  // doc2 still references the blob
  EXPECT_EQ(blobs_.stored_bytes(), 5000u);
}

TEST_F(ObjectStoreFixture, MaterializeReferencenBecomesInstance) {
  auto m = make_manifest("doc", 700, {{"a", 300}});
  ASSERT_TRUE(store_.put_reference(m).is_ok());
  ASSERT_TRUE(store_.materialize("doc", true).is_ok());
  const StoredDoc* d = store_.doc("doc");
  EXPECT_EQ(d->form, ObjectForm::instance);
  EXPECT_TRUE(d->ephemeral);
  EXPECT_EQ(store_.disk_bytes(), 1000u);
  // Idempotent on instances.
  EXPECT_TRUE(store_.materialize("doc", true).is_ok());
  EXPECT_EQ(store_.materialize("ghost", true).code(), Errc::not_found);
}

TEST_F(ObjectStoreFixture, RemoveDropsEverything) {
  auto m = make_manifest("doc", 700, {{"a", 300}});
  ASSERT_TRUE(store_.put_instance(m, false).is_ok());
  ASSERT_TRUE(store_.remove("doc").is_ok());
  EXPECT_EQ(store_.doc("doc"), nullptr);
  EXPECT_EQ(store_.structure_bytes(), 0u);
  EXPECT_EQ(blobs_.gc(), 300u);
  EXPECT_EQ(store_.remove("doc").code(), Errc::not_found);
}

TEST_F(ObjectStoreFixture, RetrievalCounterMonotonic) {
  auto m = make_manifest("doc", 100, {});
  ASSERT_TRUE(store_.put_reference(m).is_ok());
  EXPECT_EQ(store_.note_remote_retrieval("doc"), 1u);
  EXPECT_EQ(store_.note_remote_retrieval("doc"), 2u);
  EXPECT_EQ(store_.note_remote_retrieval("ghost"), 0u);
}

TEST_F(ObjectStoreFixture, KeysListsAllForms) {
  ASSERT_TRUE(store_.put_instance(make_manifest("a", 1, {}), false).is_ok());
  ASSERT_TRUE(store_.put_reference(make_manifest("b", 1, {})).is_ok());
  EXPECT_EQ(store_.keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(store_.doc_count(), 2u);
}

TEST(ObjectStoreCapacity, PutInstanceRollsBackOnFullDisk) {
  // Station disk fits one 600-byte blob but not two; a failed put must not
  // leak partial blob references.
  blob::BlobStore blobs(/*capacity_bytes=*/1000);
  ObjectStore store(blobs);
  DocManifest m = make_manifest("big", 10, {{"a", 600}, {"b", 600}});
  auto status = store.put_instance(m, false);
  EXPECT_EQ(status.code(), Errc::out_of_space);
  EXPECT_EQ(store.doc("big"), nullptr);
  EXPECT_EQ(store.structure_bytes(), 0u);
  // The first blob's tentative reference was dropped; gc clears the buffer.
  EXPECT_EQ(blobs.logical_bytes(), 0u);
  (void)blobs.gc();
  EXPECT_EQ(blobs.stored_bytes(), 0u);
  // A smaller doc still fits afterwards.
  EXPECT_TRUE(store.put_instance(make_manifest("small", 10, {{"c", 500}}), false)
                  .is_ok());
}

TEST(ObjectStoreCapacity, MaterializeFailureKeepsReferenceForm) {
  blob::BlobStore blobs(/*capacity_bytes=*/100);
  ObjectStore store(blobs);
  DocManifest m = make_manifest("doc", 10, {{"a", 500}});
  ASSERT_TRUE(store.put_reference(m).is_ok());
  EXPECT_EQ(store.materialize("doc", true).code(), Errc::out_of_space);
  EXPECT_EQ(store.doc("doc")->form, ObjectForm::reference);
  EXPECT_EQ(store.disk_bytes(), 0u);
}

}  // namespace
}  // namespace wdoc::dist
