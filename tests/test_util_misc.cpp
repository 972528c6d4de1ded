#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "util/parallel.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace dbr {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"a", "longheader"});
  t.new_row().add(std::string("x")).add(42);
  t.new_row().add(1234567).add(3.14159, 3);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| longheader |"), std::string::npos);
  EXPECT_NE(s.find("3.142"), std::string::npos);
  EXPECT_NE(s.find("1234567"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|--"), std::string::npos);
}

TEST(TextTableTest, CsvOutput) {
  TextTable t({"x", "y"});
  t.new_row().add(1).add(2);
  t.new_row().add(std::string("a")).add(std::string("b"));
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\na,b\n");
}

TEST(TextTableTest, RowDisciplineEnforced) {
  TextTable t({"only"});
  EXPECT_THROW(t.add(1), precondition_error);  // add before new_row
  t.new_row().add(1);
  EXPECT_THROW(t.add(2), precondition_error);  // too many cells
  EXPECT_THROW(TextTable({}), precondition_error);
}

TEST(TextTableTest, NegativeAndDoubleFormats) {
  TextTable t({"v"});
  t.new_row().add(static_cast<std::int64_t>(-5));
  t.new_row().add(-2.5, 1);
  const std::string s = t.to_csv();
  EXPECT_NE(s.find("-5"), std::string::npos);
  EXPECT_NE(s.find("-2.5"), std::string::npos);
}

TEST(ParallelTest, ForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, BlocksPartitionExactly) {
  std::vector<std::atomic<int>> hits(777);
  parallel_blocks(777, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, ZeroAndOneItems) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) { EXPECT_EQ(i, 0u); ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, ExceptionsPropagate) {
  EXPECT_THROW(
      parallel_for(100, [](std::size_t i) {
        if (i == 57) throw std::runtime_error("worker failure");
      }),
      std::runtime_error);
}

TEST(ParallelTest, WorkerCountPositive) { EXPECT_GE(worker_count(), 1u); }

TEST(RequireTest, ErrorTypesAndMessages) {
  try {
    require(false, "precondition text");
    FAIL() << "require did not throw";
  } catch (const precondition_error& e) {
    // The caller-facing text is the message alone, with no source location.
    EXPECT_EQ(std::string(e.what()), "precondition text");
  }
  try {
    ensure(false, "invariant text");
    FAIL() << "ensure did not throw";
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find("invariant text"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util_misc"), std::string::npos);
  }
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_NO_THROW(ensure(true, "fine"));
}

TEST(RequireTest, PreconditionIsInvalidArgument) {
  // Callers may catch std::invalid_argument / std::logic_error generically.
  EXPECT_THROW(require(false, "x"), std::invalid_argument);
  EXPECT_THROW(ensure(false, "x"), std::logic_error);
}

}  // namespace
}  // namespace dbr
