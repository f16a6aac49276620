#include "docmodel/annotation_ops.hpp"

namespace wdoc::docmodel {

Bytes AnnotationDoc::encode() const {
  Writer w;
  w.str("WDANN2");
  w.u32(static_cast<std::uint32_t>(ops_.size()));
  for (const DrawOp& op : ops_) {
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.i64(op.at_ms);
    w.u32(static_cast<std::uint32_t>(op.a.x));
    w.u32(static_cast<std::uint32_t>(op.a.y));
    w.u32(static_cast<std::uint32_t>(op.b.x));
    w.u32(static_cast<std::uint32_t>(op.b.y));
    w.u32(op.color);
    w.u16(op.stroke_width);
    w.str(op.text);
    w.u32(static_cast<std::uint32_t>(op.points.size()));
    for (Point p : op.points) {
      w.u32(static_cast<std::uint32_t>(p.x));
      w.u32(static_cast<std::uint32_t>(p.y));
    }
  }
  return w.take();
}

Result<AnnotationDoc> AnnotationDoc::decode(const Bytes& data) {
  Reader r(data);
  auto magic = r.str();
  if (!magic) return magic.error();
  bool timed;
  if (magic.value() == "WDANN2") {
    timed = true;
  } else if (magic.value() == "WDANN1") {
    timed = false;  // legacy, untimed ops
  } else {
    return Error{Errc::corrupt, "bad annotation magic"};
  }
  auto n = r.count();
  if (!n) return n.error();
  AnnotationDoc doc;
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    DrawOp op;
    auto kind = r.u8();
    if (!kind) return kind.error();
    if (kind.value() > static_cast<std::uint8_t>(DrawOpKind::freehand)) {
      return Error{Errc::corrupt, "bad draw-op kind"};
    }
    op.kind = static_cast<DrawOpKind>(kind.value());
    if (timed) {
      auto at = r.i64();
      if (!at) return at.error();
      op.at_ms = at.value();
    }
    auto ax = r.u32();
    auto ay = r.u32();
    auto bx = r.u32();
    auto by = r.u32();
    auto color = r.u32();
    auto stroke = r.u16();
    if (!ax || !ay || !bx || !by || !color || !stroke) {
      return Error{Errc::corrupt, "truncated draw-op"};
    }
    op.a = {static_cast<std::int32_t>(ax.value()), static_cast<std::int32_t>(ay.value())};
    op.b = {static_cast<std::int32_t>(bx.value()), static_cast<std::int32_t>(by.value())};
    op.color = color.value();
    op.stroke_width = stroke.value();
    auto text = r.str();
    if (!text) return text.error();
    op.text = std::move(text).value();
    auto npts = r.count(8);  // 8 bytes per point
    if (!npts) return npts.error();
    op.points.reserve(npts.value());
    for (std::uint32_t j = 0; j < npts.value(); ++j) {
      auto px = r.u32();
      auto py = r.u32();
      if (!px || !py) return Error{Errc::corrupt, "truncated freehand points"};
      op.points.push_back(
          {static_cast<std::int32_t>(px.value()), static_cast<std::int32_t>(py.value())});
    }
    doc.add(std::move(op));
  }
  return doc;
}

}  // namespace wdoc::docmodel
