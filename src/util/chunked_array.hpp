// Per-id storage that grows one fixed-size chunk at a time.
//
// The static analysis keeps state per SSA value id of a run whose length it
// learns only as the run executes (jacobi assigns 267k ids). A doubling
// std::vector would hold up to twice that and copy its whole block on every
// growth; chunks are never copied or moved, and at most one is partly used.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace tp {

template <class T>
class ChunkedArray {
public:
    /// Ids per chunk.
    static constexpr std::size_t kChunkIds = std::size_t{1} << 12;

    /// `width` consecutive elements per id.
    explicit ChunkedArray(std::size_t width = 1) : width_(width) {}

    /// Makes ids [0, n) addressable; new elements are value-initialized.
    void grow_to(std::size_t n) {
        while (capacity() < n) {
            chunks_.push_back(std::make_unique<T[]>(width_ * kChunkIds));
        }
    }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return chunks_.size() * kChunkIds;
    }

    /// The `width` elements of `id`, which must be below capacity().
    [[nodiscard]] T* row(std::size_t id) noexcept {
        return chunks_[id / kChunkIds].get() + (id % kChunkIds) * width_;
    }
    [[nodiscard]] const T* row(std::size_t id) const noexcept {
        return chunks_[id / kChunkIds].get() + (id % kChunkIds) * width_;
    }
    [[nodiscard]] T& operator[](std::size_t id) noexcept { return *row(id); }
    [[nodiscard]] const T& operator[](std::size_t id) const noexcept {
        return *row(id);
    }

private:
    std::size_t width_;
    std::vector<std::unique_ptr<T[]>> chunks_;
};

} // namespace tp
