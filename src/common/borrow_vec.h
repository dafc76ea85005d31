// BorrowVec<T>: a vector that can either own its elements or borrow
// them from externally managed memory (an artifact image).
//
// Every open of a CompactSpineIndex (storage/mmap_region.h) points its
// tables straight into the image, a mapping or a heap buffer, while a
// built index owns them, so this class gives them one type that serves
// both: read accessors dispatch to the view or the owned vector, and
// every mutating accessor first materializes the view into owned
// storage (copy-on-write at vector granularity). Query paths are const
// member functions, so borrowed serving never pays the materialize
// branch on reads.
//
// The borrowed memory is NOT owned or kept alive by this class — the
// borrower (CompactSpineIndex holds a shared_ptr to its image) must
// outlive every view. capacity() reports 0 while borrowed: the image's
// owner accounts for it (a mapping's pages belong to the page cache; a
// heap buffer is counted by whoever opened it, as
// storage::ImageBytes::heap_bytes), which keeps MemoryBytes() honest
// about resident cost.

#ifndef SPINE_COMMON_BORROW_VEC_H_
#define SPINE_COMMON_BORROW_VEC_H_

#include <cstddef>
#include <vector>

namespace spine {

template <typename T>
class BorrowVec {
 public:
  BorrowVec() = default;

  // Points at `count` externally owned elements. The pointer must stay
  // valid (and properly aligned for T) until the next mutation or
  // Borrow/assign call.
  void Borrow(const T* data, size_t count) {
    owned_.clear();
    view_ = data;
    view_size_ = count;
  }

  bool borrowed() const { return view_ != nullptr; }

  // Copies a borrowed view into owned storage; no-op when owned.
  void EnsureOwned() {
    if (view_ == nullptr) return;
    owned_.assign(view_, view_ + view_size_);
    view_ = nullptr;
    view_size_ = 0;
  }

  size_t size() const { return view_ != nullptr ? view_size_ : owned_.size(); }
  bool empty() const { return size() == 0; }
  const T* data() const { return view_ != nullptr ? view_ : owned_.data(); }
  const T& operator[](size_t i) const { return data()[i]; }
  const T& back() const { return data()[size() - 1]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  // Owned bytes only: a borrowed view lives in shared mapped pages.
  size_t capacity() const { return owned_.capacity(); }

  // --- Mutation (materializes a borrowed view first) ----------------------

  T* data() {
    EnsureOwned();
    return owned_.data();
  }
  T& operator[](size_t i) {
    EnsureOwned();
    return owned_[i];
  }
  void push_back(const T& value) {
    EnsureOwned();
    owned_.push_back(value);
  }
  void pop_back() {
    EnsureOwned();
    owned_.pop_back();
  }
  void resize(size_t n) {
    EnsureOwned();
    owned_.resize(n);
  }
  void assign(size_t n, const T& value) {
    view_ = nullptr;
    view_size_ = 0;
    owned_.assign(n, value);
  }
  void clear() {
    view_ = nullptr;
    view_size_ = 0;
    owned_.clear();
  }

 private:
  const T* view_ = nullptr;  // non-null => borrowed mode
  size_t view_size_ = 0;
  std::vector<T> owned_;
};

}  // namespace spine

#endif  // SPINE_COMMON_BORROW_VEC_H_
