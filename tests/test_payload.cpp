// net::Payload — the refcounted immutable buffer every wire payload rides
// in. The contract under test: construction from owned buffers is
// zero-copy, and copies and wraps alias the shared buffer (refcount bump,
// no bytes moved).
#include <gtest/gtest.h>

#include "net/payload.hpp"

namespace wdoc::net {
namespace {

Bytes pattern(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return out;
}

TEST(Payload, DefaultIsEmpty) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
}

TEST(Payload, MintFromBytesIsZeroCopy) {
  Bytes b = pattern(1000);
  const std::uint8_t* data = b.data();
  Payload p{std::move(b)};
  EXPECT_EQ(p.size(), 1000u);
  EXPECT_EQ(p.data(), data);  // the very same allocation
}

TEST(Payload, MintFromStringIsZeroCopy) {
  std::string s(500, 'x');
  const char* data = s.data();
  Payload p{std::move(s)};
  EXPECT_EQ(p.size(), 500u);
  EXPECT_EQ(p.text().data(), data);
  EXPECT_EQ(p.text(), std::string(500, 'x'));
}

TEST(Payload, CopySharesTheBuffer) {
  Payload p{pattern(1000)};
  Payload q = p;  // refcount bump
  EXPECT_EQ(q.data(), p.data());
  // The copy keeps the buffer alive past the original.
  p = Payload{};
  EXPECT_EQ(q.size(), 1000u);
  EXPECT_EQ(q.data()[100], pattern(1000)[100]);
}

TEST(Payload, WrapClampsToBounds) {
  auto buf = std::make_shared<const Bytes>(pattern(100));
  EXPECT_EQ(Payload::wrap(buf, 90, 50).size(), 10u);
  EXPECT_EQ(Payload::wrap(buf, 200, 10).size(), 0u);
  EXPECT_EQ(Payload::wrap(nullptr, 0, 10).size(), 0u);
}

TEST(Payload, WrapAliasesSharedBytes) {
  auto buf = std::make_shared<const Bytes>(pattern(4096));
  Payload part = Payload::wrap(buf, 1024, 256);
  EXPECT_EQ(part.data(), buf->data() + 1024);
  EXPECT_EQ(part.size(), 256u);
  // The wrap holds the buffer even after the caller's shared_ptr drops.
  const std::uint8_t expect_byte = (*buf)[1024];
  buf.reset();
  EXPECT_EQ(part.data()[0], expect_byte);
}

TEST(Payload, EqualityComparesContents) {
  Payload a{pattern(64)};
  Payload b{pattern(64)};
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Payload{pattern(63)});
  EXPECT_EQ(Payload{}, Payload{});
}

}  // namespace
}  // namespace wdoc::net
