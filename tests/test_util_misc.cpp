#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "core/ffc.hpp"
#include "core/instance_context.hpp"
#include "core/solve_scratch.hpp"
#include "service/fabric.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

// Every global operator new in this binary is counted, so a test can assert
// that a code path allocates nothing (or a size-independent amount). The
// array, nothrow and sized-delete forms route through these two.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression's pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace dbr {
namespace {

/// Heap allocations made while running fn.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

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

// Passing checks build no message: the texts below are past the 15-byte
// small-string buffer, so a std::string parameter would allocate per call.
TEST(AllocationTest, PassingChecksAllocateNothing) {
  volatile bool holds = true;  // keep the checks out of constant folding
  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      require(holds, "a precondition text longer than fifteen bytes");
      ensure(holds, "an invariant text longer than fifteen bytes");
    }
  });
  EXPECT_EQ(n, 0u);
}

// Fabric routing looks up the owner shard on every request.
TEST(AllocationTest, HashRingOwnerAllocatesNothing) {
  service::HashRing ring;
  for (service::ShardId shard = 0; shard < 4; ++shard) ring.add(shard);
  std::uint64_t sink = 0;
  const std::uint64_t n = allocations_during([&] {
    for (std::uint64_t point = 0; point < 1000; ++point) {
      sink += ring.owner(point * 0x9e3779b97f4a7c15ULL);
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_GT(sink + 1, 0u);
}

/// Allocations of a warm FFC solve on B(2,n) into a reused arena: the
/// context sections and the arena are sized by a first solve, so only the
/// result's own vectors remain.
std::uint64_t warm_ffc_allocations(unsigned n) {
  const auto ctx = core::InstanceContext::make(2, n);
  core::SolveScratch scratch;
  const std::vector<Word> faults{5, 9};
  (void)core::solve_ffc(*ctx, faults, scratch);
  std::uint64_t nodes = 0;
  const std::uint64_t count = allocations_during([&] {
    nodes = core::solve_ffc(*ctx, faults, scratch).cycle.length();
  });
  EXPECT_GT(nodes, 0u);
  return count;
}

// A warm solve allocates a fixed number of result vectors, however long the
// ring: nothing per node, necklace or label.
TEST(AllocationTest, WarmFfcSolveDoesNotGrowWithTheRing) {
  const std::uint64_t small = warm_ffc_allocations(10);
  const std::uint64_t large = warm_ffc_allocations(14);
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 4u);  // cycle, faulty reps, T and D: one each
}

}  // namespace
}  // namespace dbr
