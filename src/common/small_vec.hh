/**
 * @file
 * A vector that keeps its first N elements inline, so a short one
 * costs no allocation.  The assemblers' expressions and operand lists
 * nearly always fit.
 */

#ifndef RISC1_COMMON_SMALL_VEC_HH
#define RISC1_COMMON_SMALL_VEC_HH

#include <array>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace risc1 {

/**
 * Up to @p N elements live in an inline array; past that, all of them
 * move to a heap vector, reserved for 2N elements.  T must be
 * default-constructible and movable.
 */
template <typename T, std::size_t N>
class SmallVec
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *begin() { return data(); }
    T *end() { return data() + size_; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }
    T &front() { return data()[0]; }
    const T &front() const { return data()[0]; }

    void
    push_back(T value)
    {
        if (size_ < N) {
            inline_[size_++] = std::move(value);
            return;
        }
        if (size_ == N) {
            heap_.reserve(2 * N);
            heap_.assign(std::make_move_iterator(inline_.begin()),
                         std::make_move_iterator(inline_.end()));
        }
        heap_.push_back(std::move(value));
        ++size_;
    }

  private:
    T *data() { return size_ <= N ? inline_.data() : heap_.data(); }
    const T *
    data() const
    {
        return size_ <= N ? inline_.data() : heap_.data();
    }

    std::array<T, N> inline_{};
    std::vector<T> heap_;
    std::size_t size_ = 0;
};

} // namespace risc1

#endif // RISC1_COMMON_SMALL_VEC_HH
