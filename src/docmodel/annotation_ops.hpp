// Annotation draw-ops — the stand-in for the Java annotation daemon's
// output ("draw lines, text, and simple graphic objects on the top of a Web
// page", §1). An AnnotationDoc is the decoded form of an annotation file's
// byte payload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/serialize.hpp"

namespace wdoc::docmodel {

enum class DrawOpKind : std::uint8_t {
  line = 0,
  rect = 1,
  ellipse = 2,
  text = 3,
  freehand = 4,
};

struct Point {
  std::int32_t x = 0;
  std::int32_t y = 0;
  friend bool operator==(const Point&, const Point&) = default;
};

struct DrawOp {
  DrawOpKind kind = DrawOpKind::line;
  Point a;                     // anchor (line start / box corner / text origin)
  Point b;                     // line end / opposite corner; unused for text
  std::uint32_t color = 0xff000000;  // ARGB
  std::uint16_t stroke_width = 1;
  std::string text;            // text ops only
  std::vector<Point> points;   // freehand only
  // When the op was drawn, relative to the start of the annotation session.
  std::int64_t at_ms = 0;

  friend bool operator==(const DrawOp&, const DrawOp&) = default;
};

class AnnotationDoc {
 public:
  void add(DrawOp op) { ops_.push_back(std::move(op)); }
  [[nodiscard]] const std::vector<DrawOp>& ops() const { return ops_; }
  [[nodiscard]] std::size_t op_count() const { return ops_.size(); }
  [[nodiscard]] bool empty() const { return ops_.empty(); }

  [[nodiscard]] Bytes encode() const;  // writes the current (v2, timed) format
  // Reads v2, and the untimed v1 format (ops get at_ms = 0).
  [[nodiscard]] static Result<AnnotationDoc> decode(const Bytes& data);

  friend bool operator==(const AnnotationDoc&, const AnnotationDoc&) = default;

 private:
  std::vector<DrawOp> ops_;
};

}  // namespace wdoc::docmodel
