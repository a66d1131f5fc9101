// DimensionHashTable: one level of the CJOIN pipeline's shared hash-join
// chain (paper Fig. 1b / Fig. 2), as a read-only flat table.
//
// The first admission that joins the dimension loads all of it, once, into
// one row arena; an open-addressing index (FlatTable) maps each key to its
// row, and a duplicate key keeps its first row. Rows never move or change
// afterwards. Only the query bitmaps do: row r carries words() atomic
// words, bit q set meaning "row r satisfies query q's predicate on this
// dimension". Two per-level bitmaps complete the picture:
//  * all-rows: queries whose predicate keeps every row, granted with one
//    bit instead of one per row;
//  * neutral: queries that do not join this dimension at all, which must
//    pass the level unaffected.
// A fact tuple whose key finds row r passes row r's bits | all-rows |
// neutral; a key absent from the dimension passes only the neutral bits.
//
// Admission is two-phase. Select() evaluates a predicate over the arena
// into a Selection, on the admitting query's own thread. Grant() and
// Revoke() then flip exactly that selection's bits with relaxed atomic
// read-modify-writes. Nothing locks a probe: the pipeline grants a query's
// bits before the first fact claim that includes it and revokes them after
// its last claimed page completes, and a page only reads the bits of the
// queries its claim returned (pipeline.h).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status_or.h"
#include "exec/expr.h"
#include "exec/flat_table.h"
#include "storage/table.h"

namespace sharing {

class DimensionHashTable {
 public:
  static constexpr uint32_t kNoRow = FlatTable::kNone;

  /// The rows satisfying one query's predicate: all of them, or a list of
  /// row indices.
  struct Selection {
    bool all = false;
    std::vector<uint32_t> rows;
  };

  /// `dim`: the dimension table; `pk_col`: its key column;
  /// `max_queries`: pipeline bitmap capacity.
  DimensionHashTable(const Table* dim, std::size_t pk_col,
                     std::size_t max_queries);

  SHARING_DISALLOW_COPY_AND_MOVE(DimensionHashTable);

  /// Admission phase 1: loads the dimension on first use (a failed load is
  /// retried by the next call), then evaluates `predicate` over every row.
  /// Safe to call from any thread.
  StatusOr<Selection> Select(const Expr& predicate);

  /// Admission phase 2: sets query `bit` on exactly `sel`'s rows (or on
  /// the all-rows bitmap). `sel` must come from this table's Select().
  void Grant(std::size_t bit, const Selection& sel);

  /// Departure: clears exactly the bits Grant(bit, sel) set.
  void Revoke(std::size_t bit, const Selection& sel);

  /// Sets or clears query `bit` in the neutral bitmap.
  void SetNeutral(std::size_t bit, bool on);

  /// The row holding `key`, or kNoRow. Valid once a Select() succeeded.
  uint32_t Find(int64_t key) const {
    return index_.FindWord(static_cast<uint64_t>(key));
  }

  /// Row r's packed dimension tuple (full dimension schema).
  const uint8_t* row(uint32_t r) const {
    return arena_.data() + std::size_t(r) * row_width_;
  }

  /// Word w of row r's own bitmap, and of the level bitmaps.
  uint64_t RowBits(uint32_t r, std::size_t w) const {
    return row_bits_[std::size_t(r) * words_ + w].load(
        std::memory_order_relaxed);
  }
  uint64_t AllRowsBits(std::size_t w) const {
    return all_rows_[w].load(std::memory_order_relaxed);
  }
  uint64_t NeutralBits(std::size_t w) const {
    return neutral_[w].load(std::memory_order_relaxed);
  }

  /// Bitmap words per row (ceil(max_queries / 64)).
  std::size_t words() const { return words_; }

  /// Distinct-key rows loaded (0 before the first successful Select).
  std::size_t NumRows() const { return index_.size(); }

 private:
  Status LoadOnce();

  const Table* dim_;
  std::size_t pk_col_;
  std::size_t row_width_;
  std::size_t words_;

  // Written once under load_mutex_, read-only after loaded_ is set.
  std::mutex load_mutex_;
  std::atomic<bool> loaded_{false};
  FlatTable index_{sizeof(int64_t)};
  std::vector<uint8_t> arena_;

  std::unique_ptr<std::atomic<uint64_t>[]> row_bits_;  // NumRows x words_
  std::unique_ptr<std::atomic<uint64_t>[]> all_rows_;  // words_
  std::unique_ptr<std::atomic<uint64_t>[]> neutral_;   // words_
};

}  // namespace sharing
