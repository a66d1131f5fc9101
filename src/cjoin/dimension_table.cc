#include "cjoin/dimension_table.h"

#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace sharing {

namespace {

std::size_t BitWord(std::size_t bit) { return bit >> 6; }
uint64_t BitMask(std::size_t bit) { return uint64_t{1} << (bit & 63); }

}  // namespace

DimensionHashTable::DimensionHashTable(const Table* dim, std::size_t pk_col,
                                       std::size_t max_queries)
    : dim_(dim),
      pk_col_(pk_col),
      row_width_(dim->schema().row_width()),
      words_((max_queries + 63) / 64),
      all_rows_(std::make_unique<std::atomic<uint64_t>[]>(words_)),
      neutral_(std::make_unique<std::atomic<uint64_t>[]>(words_)) {
  SHARING_CHECK(pk_col < dim->schema().num_columns());
  SHARING_CHECK(dim->schema().column(pk_col).type == ValueType::kInt64)
      << "dimension key must be int64";
}

Status DimensionHashTable::LoadOnce() {
  if (loaded_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(load_mutex_);
  if (loaded_.load(std::memory_order_relaxed)) return Status::OK();

  const std::size_t key_off = dim_->schema().offset(pk_col_);
  BufferPool* pool = dim_->buffer_pool();
  arena_.reserve(dim_->num_rows() * row_width_);
  for (std::size_t p = 0; p < dim_->num_pages(); ++p) {
    auto guard_or = pool->FetchPage(dim_->page_id(p));
    if (!guard_or.ok()) {
      // Leave the table empty for the next attempt.
      index_ = FlatTable(sizeof(int64_t));
      arena_ = {};
      return guard_or.status();
    }
    const uint8_t* frame = guard_or.value().data();
    const uint32_t n = page_layout::RowCount(frame);
    for (uint32_t i = 0; i < n; ++i) {
      // Index ids are dense in first-insertion order: a key seen for the
      // first time gets the next arena row, a duplicate keeps its first.
      const uint8_t* raw = page_layout::RowAt(frame, i);
      int64_t key;
      std::memcpy(&key, raw + key_off, sizeof(key));
      const std::size_t before = index_.size();
      if (index_.FindOrInsertWord(static_cast<uint64_t>(key)) == before) {
        arena_.insert(arena_.end(), raw, raw + row_width_);
      }
    }
  }
  row_bits_ =
      std::make_unique<std::atomic<uint64_t>[]>(index_.size() * words_);
  loaded_.store(true, std::memory_order_release);
  return Status::OK();
}

StatusOr<DimensionHashTable::Selection> DimensionHashTable::Select(
    const Expr& predicate) {
  SHARING_RETURN_NOT_OK(LoadOnce());
  Selection sel;
  sel.rows.resize(NumRows());
  std::iota(sel.rows.begin(), sel.rows.end(), 0u);
  const std::size_t kept = predicate.EvalBoolBatch(
      arena_.data(), row_width_, dim_->schema(), sel.rows.data(),
      sel.rows.size());
  sel.all = kept == sel.rows.size();
  sel.rows.resize(sel.all ? 0 : kept);
  sel.rows.shrink_to_fit();
  return sel;
}

void DimensionHashTable::Grant(std::size_t bit, const Selection& sel) {
  const std::size_t w = BitWord(bit);
  const uint64_t mask = BitMask(bit);
  if (sel.all) {
    all_rows_[w].fetch_or(mask, std::memory_order_relaxed);
    return;
  }
  for (uint32_t r : sel.rows) {
    row_bits_[std::size_t(r) * words_ + w].fetch_or(
        mask, std::memory_order_relaxed);
  }
}

void DimensionHashTable::Revoke(std::size_t bit, const Selection& sel) {
  const std::size_t w = BitWord(bit);
  const uint64_t mask = ~BitMask(bit);
  if (sel.all) {
    all_rows_[w].fetch_and(mask, std::memory_order_relaxed);
    return;
  }
  for (uint32_t r : sel.rows) {
    row_bits_[std::size_t(r) * words_ + w].fetch_and(
        mask, std::memory_order_relaxed);
  }
}

void DimensionHashTable::SetNeutral(std::size_t bit, bool on) {
  if (on) {
    neutral_[BitWord(bit)].fetch_or(BitMask(bit), std::memory_order_relaxed);
  } else {
    neutral_[BitWord(bit)].fetch_and(~BitMask(bit),
                                     std::memory_order_relaxed);
  }
}

}  // namespace sharing
