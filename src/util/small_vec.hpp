#pragma once
// A vector of trivially copyable values kept inline up to N elements
// and on the heap past N: 16 bytes for two IPv4 addresses (a
// std::vector alone takes 24), so recording a response's A answers
// allocates nothing and the correlator's window does not grow.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace odns::util {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T> && N > 0);

 public:
  SmallVec() = default;
  SmallVec(const std::vector<T>& values) {  // NOLINT: implicit on purpose
    for (const T& v : values) push_back(v);
  }
  SmallVec(const SmallVec& o) { *this = o; }
  SmallVec& operator=(const SmallVec& o) {
    if (this == &o) return *this;
    size_ = 0;
    for (const T& v : o) push_back(v);
    return *this;
  }
  /// A moved-from SmallVec is empty.
  SmallVec(SmallVec&& o) noexcept { *this = std::move(o); }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this == &o) return *this;
    release();
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.on_heap()) {
      heap_ = o.heap_;
    } else {
      inline_ = o.inline_;
    }
    o.size_ = 0;
    o.cap_ = N;
    return *this;
  }
  ~SmallVec() { release(); }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    data()[size_++] = v;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] const T& front() const { return data()[0]; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[nodiscard]] bool on_heap() const { return cap_ > N; }
  [[nodiscard]] T* data() { return on_heap() ? heap_ : inline_.data(); }
  [[nodiscard]] const T* data() const {
    return on_heap() ? heap_ : inline_.data();
  }
  void grow() {
    T* bigger = new T[cap_ * 2];
    std::copy_n(data(), size_, bigger);
    if (on_heap()) delete[] heap_;
    heap_ = bigger;
    cap_ *= 2;
  }
  void release() {
    if (on_heap()) delete[] heap_;
    size_ = 0;
    cap_ = N;
  }

  union {
    std::array<T, N> inline_{};
    T* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
};

}  // namespace odns::util
