// Simulated time used by the discrete-event network simulator and by
// timestamps in the document database. Microsecond resolution, 64-bit.
#pragma once

#include <cstdint>
#include <string>

namespace wdoc {

class SimTime {
 public:
  constexpr SimTime() = default;

  [[nodiscard]] static constexpr SimTime zero() { return SimTime{0}; }
  [[nodiscard]] static constexpr SimTime micros(std::int64_t us) { return SimTime{us}; }
  [[nodiscard]] static constexpr SimTime millis(std::int64_t ms) { return SimTime{ms * 1000}; }
  [[nodiscard]] static constexpr SimTime seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e6)};
  }
  [[nodiscard]] static constexpr SimTime minutes(double m) { return seconds(m * 60.0); }

  [[nodiscard]] constexpr std::int64_t as_micros() const { return us_; }
  [[nodiscard]] constexpr double as_millis() const { return static_cast<double>(us_) / 1e3; }
  [[nodiscard]] constexpr double as_seconds() const { return static_cast<double>(us_) / 1e6; }

  friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.us_ + b.us_}; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.us_ - b.us_}; }
  constexpr SimTime& operator+=(SimTime other) {
    us_ += other.us_;
    return *this;
  }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime{a.us_ * k}; }

  friend constexpr bool operator==(SimTime, SimTime) = default;
  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit SimTime(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

}  // namespace wdoc
