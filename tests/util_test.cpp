// Unit tests for clb::util — math helpers, tables, CLI, block partition,
// phase barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace clb::util {
namespace {

TEST(Math, Ilog2ExactPowers) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(ilog2(1ULL << 63), 63u);
}

TEST(Math, Ilog2Floors) {
  EXPECT_EQ(ilog2(3), 1u);
  EXPECT_EQ(ilog2(1023), 9u);
  EXPECT_EQ(ilog2(1025), 10u);
}

TEST(Math, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(65));
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(Math, Log2Log2KnownValues) {
  EXPECT_NEAR(log2log2(16), 2.0, 1e-12);        // log2(4)
  EXPECT_NEAR(log2log2(65536), 4.0, 1e-12);     // log2(16)
  EXPECT_NEAR(log2log2(1ULL << 32), 5.0, 1e-12);
}

TEST(Math, RoundAtLeast) {
  EXPECT_EQ(round_at_least(3.4, 1), 3u);
  EXPECT_EQ(round_at_least(3.6, 1), 4u);
  EXPECT_EQ(round_at_least(0.2, 5), 5u);
  EXPECT_EQ(round_at_least(-1.0, 2), 2u);
}

TEST(Math, SatSub) {
  EXPECT_EQ(sat_sub(5, 3), 2u);
  EXPECT_EQ(sat_sub(3, 5), 0u);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::uint64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string s = t.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("value"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().cell(std::uint64_t{1}).cell(std::uint64_t{2});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, FormatDoublePrecision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Cli, ParsesTypedFlags) {
  Cli cli("test");
  auto n = cli.flag_u64("n", 7, "count");
  auto x = cli.flag_f64("x", 0.5, "ratio");
  auto s = cli.flag_str("s", "dflt", "label");
  auto b = cli.flag_bool("b", false, "toggle");
  const char* argv[] = {"prog", "--n=123", "--x", "2.5", "--s=hello", "--b"};
  cli.parse(6, const_cast<char**>(argv));
  EXPECT_EQ(*n, 123u);
  EXPECT_DOUBLE_EQ(*x, 2.5);
  EXPECT_EQ(*s, "hello");
  EXPECT_TRUE(*b);
}

TEST(Cli, DefaultsSurviveEmptyArgv) {
  Cli cli("test");
  auto n = cli.flag_u64("n", 7, "count");
  const char* argv[] = {"prog"};
  cli.parse(1, const_cast<char**>(argv));
  EXPECT_EQ(*n, 7u);
}

TEST(Cli, ParseU64List) {
  const auto v = Cli::parse_u64_list("1,16,256");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[2], 256u);
  EXPECT_TRUE(Cli::parse_u64_list("").empty());
}

TEST(BlockRange, PartitionsInOrderWithBalancedSizes) {
  // Concatenating blocks 0..parts-1 must walk [0, count) in order, with
  // sizes differing by at most one and larger blocks first — the property
  // the rt shard layout relies on for "worker order = processor order".
  for (std::uint64_t count : {0ull, 1ull, 7ull, 64ull, 97ull, 1000ull}) {
    for (unsigned parts : {1u, 2u, 3u, 8u, 13u}) {
      std::uint64_t expect_begin = 0;
      std::uint64_t prev_size = ~0ull;
      for (unsigned i = 0; i < parts; ++i) {
        const auto [b, e] = block_range(count, parts, i);
        EXPECT_EQ(b, expect_begin) << count << "/" << parts << " blk " << i;
        EXPECT_GE(e, b);
        EXPECT_LE(e - b, prev_size);
        EXPECT_LE(prev_size - (e - b), prev_size == ~0ull ? ~0ull : 1ull);
        prev_size = e - b;
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, count);
    }
  }
}

TEST(PhaseBarrier, SinglePartyNeverBlocks) {
  PhaseBarrier b(1);
  for (int i = 0; i < 10; ++i) b.arrive_and_wait();
  EXPECT_EQ(b.generation(), 10u);
}

TEST(PhaseBarrier, SeparatesWritePhasesAcrossThreads) {
  // Each of 4 threads increments a plain (non-atomic) counter once per
  // cycle; the barrier's happens-before must make every increment of cycle
  // k visible before any thread starts cycle k+1.
  constexpr unsigned kParties = 4;
  constexpr int kCycles = 200;
  PhaseBarrier barrier(kParties);
  std::uint64_t slots[kParties] = {};
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (unsigned t = 0; t < kParties; ++t) {
    threads.emplace_back([&, t] {
      for (int cycle = 1; cycle <= kCycles; ++cycle) {
        slots[t] += 1;
        barrier.arrive_and_wait();
        std::uint64_t sum = 0;
        for (const std::uint64_t s : slots) sum += s;
        if (sum != static_cast<std::uint64_t>(cycle) * kParties)
          mismatches.fetch_add(1);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(barrier.generation(), 2u * kCycles);
}

}  // namespace
}  // namespace clb::util
