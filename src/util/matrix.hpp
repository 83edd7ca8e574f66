// ccsched — minimal dense row-major matrix.
//
// Used for hop-distance tables, the Leiserson–Saxe W/D path-weight
// matrices of the test referee, and schedule occupancy grids.  Value-semantic, bounds-checked through
// contracts, no external dependencies.
#pragma once

#include <cstddef>
#include <vector>

#include "util/contracts.hpp"

namespace ccs {

/// Dense row-major matrix with contract-checked element access.
template <typename T>
class Matrix {
public:
  Matrix() = default;

  /// Creates a rows×cols matrix with every element set to `init`.
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
    CCS_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
    CCS_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Sets every element to `value`.
  void fill(const T& value) {
    for (auto& x : data_) x = value;
  }

  [[nodiscard]] bool operator==(const Matrix&) const = default;

private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace ccs
