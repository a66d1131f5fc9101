// Shared helpers for the test suite.

#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "exec/result.h"
#include "storage/table.h"

namespace sharing::testing {

/// In-memory database with a generous frame budget (no latency model).
inline std::unique_ptr<Database> MakeTestDatabase(
    std::size_t frames = 16384) {
  DatabaseOptions options;
  options.buffer_pool_frames = frames;
  return std::make_unique<Database>(options);
}

/// Creates a two-column (id int64, val double) table with `n` rows:
/// id = 0..n-1, val = id * 0.5.
inline Table* MakeSimpleTable(Database* db, const std::string& name,
                              int64_t n) {
  Schema schema({Column::Int64("id"), Column::Double("val")});
  auto table_or = db->catalog()->CreateTable(name, schema, db->buffer_pool());
  EXPECT_TRUE(table_or.ok()) << table_or.status().ToString();
  Table* table = table_or.value();
  TableAppender appender(table);
  for (int64_t i = 0; i < n; ++i) {
    auto row_or = appender.AppendRow();
    EXPECT_TRUE(row_or.ok());
    row_or.value().SetInt64(0, i).SetDouble(1, double(i) * 0.5);
  }
  EXPECT_TRUE(appender.Finish().ok());
  return table;
}

/// Asserts two result sets contain the same rows (order-insensitive) and
/// identical schemas.
inline void ExpectResultsEquivalent(const ResultSet& a, const ResultSet& b,
                                    const std::string& label = "") {
  ASSERT_TRUE(a.schema() == b.schema())
      << label << ": schemas differ: " << a.schema().ToString() << " vs "
      << b.schema().ToString();
  auto ra = a.CanonicalRows();
  auto rb = b.CanonicalRows();
  ASSERT_EQ(ra.size(), rb.size()) << label << ": row counts differ";
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i], rb[i]) << label << ": row " << i << " differs";
  }
}

/// The number of threads in this process (`Threads:` in
/// /proc/self/status), or -1 if it cannot be read.
inline int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

}  // namespace sharing::testing
