// Unit tests for the dense bitmask and sparse frontiers plus the
// direction-switch heuristic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "frontier/dense_frontier.h"
#include "frontier/sparse_frontier.h"
#include "threading/thread_pool.h"

namespace grazelle {
namespace {

TEST(DenseFrontier, SetTestReset) {
  DenseFrontier f(200);
  EXPECT_FALSE(f.test(5));
  f.set(5);
  f.set(64);
  f.set(199);
  EXPECT_TRUE(f.test(5));
  EXPECT_TRUE(f.test(64));
  EXPECT_TRUE(f.test(199));
  EXPECT_FALSE(f.test(6));
  f.reset(64);
  EXPECT_FALSE(f.test(64));
  EXPECT_EQ(f.count(), 2u);
}

TEST(DenseFrontier, SetAllRespectsTail) {
  DenseFrontier f(70);
  f.set_all();
  EXPECT_EQ(f.count(), 70u);
  EXPECT_TRUE(f.test(69));
  // The tail bits beyond num_vertices stay clear.
  EXPECT_EQ(f.words()[1] >> 6, 0u);
}

TEST(DenseFrontier, SetAllExactWordBoundary) {
  DenseFrontier f(128);
  f.set_all();
  EXPECT_EQ(f.count(), 128u);
}

TEST(DenseFrontier, ClearAllEmpties) {
  DenseFrontier f(100);
  f.set_all();
  f.clear_all();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.count(), 0u);
}

TEST(DenseFrontier, ForEachVisitsAscending) {
  DenseFrontier f(300);
  const std::vector<VertexId> members = {0, 63, 64, 127, 128, 255, 299};
  for (VertexId v : members) f.set(v);
  std::vector<VertexId> seen;
  f.for_each([&](VertexId v) { seen.push_back(v); });
  EXPECT_EQ(seen, members);
}

TEST(DenseFrontier, AtomicSetConcurrent) {
  DenseFrontier f(10000);
  ThreadPool pool(4);
  pool.run([&](unsigned tid) {
    for (VertexId v = tid; v < 10000; v += 4) f.set_atomic(v);
  });
  EXPECT_EQ(f.count(), 10000u);
}

TEST(DenseFrontier, SwapExchangesContents) {
  DenseFrontier a(64), b(64);
  a.set(1);
  b.set(2);
  a.swap(b);
  EXPECT_TRUE(a.test(2));
  EXPECT_TRUE(b.test(1));
  EXPECT_FALSE(a.test(1));
}

TEST(SparseFrontier, PerThreadStagingAndSeal) {
  SparseFrontier f(3);
  f.push(0, 10);
  f.push(1, 20);
  f.push(2, 30);
  f.push(0, 11);
  EXPECT_EQ(f.size(), 0u);  // staged only
  f.seal();
  EXPECT_EQ(f.size(), 4u);
  auto v = f.vertices();
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<VertexId>{10, 11, 20, 30}));
}

TEST(SparseFrontier, DenseConversionRoundTrip) {
  DenseFrontier dense(500);
  dense.set(3);
  dense.set(499);
  dense.set(64);
  const SparseFrontier sparse = SparseFrontier::from_dense(dense);
  EXPECT_EQ(sparse.size(), 3u);
  const DenseFrontier back = sparse.to_dense(500);
  EXPECT_TRUE(back.test(3));
  EXPECT_TRUE(back.test(64));
  EXPECT_TRUE(back.test(499));
  EXPECT_EQ(back.count(), 3u);
}

TEST(SparseFrontier, ClearResets) {
  SparseFrontier f(1);
  f.push(0, 1);
  f.seal();
  f.clear();
  EXPECT_TRUE(f.empty());
}

TEST(DirectionHeuristic, SwitchesAtEdgeFraction) {
  const std::uint64_t m = 10000;
  EXPECT_FALSE(should_use_dense(10, 100, m));   // tiny frontier: push
  EXPECT_TRUE(should_use_dense(100, 1000, m));  // heavy frontier: pull
  EXPECT_TRUE(should_use_dense(0, m, m));
}

TEST(DirectionHeuristic, WiderDivisorLowersThreshold) {
  const std::uint64_t m = 10000;
  // 10 + 100 <= 10000/20 stays push classically, but a gating-widened
  // divisor of 200 pulls (threshold drops to 50 edges).
  EXPECT_FALSE(should_use_dense(10, 100, m, 20));
  EXPECT_TRUE(should_use_dense(10, 100, m, 200));
}

// The soundness invariant the gated pull kernels rely on: a zero
// summary bit proves the corresponding data word is zero. (The
// converse — summary bit set but word empty — is allowed and harmless.)
void expect_summary_covers_words(const HierarchicalFrontier& f) {
  for (std::uint64_t w = 0; w < f.num_words(); ++w) {
    if (f.words()[w] != 0) {
      EXPECT_TRUE(f.word_maybe_nonzero(w)) << "word " << w;
    }
  }
}

TEST(HierarchicalFrontier, SummaryMaintainedBySetAndReset) {
  HierarchicalFrontier f(10000);
  EXPECT_EQ(f.num_words(), 157u);
  EXPECT_EQ(f.num_summary_words(), 3u);
  f.set(0);
  f.set(4095);
  f.set(4096);
  f.set(9999);
  expect_summary_covers_words(f);
  EXPECT_TRUE(f.word_maybe_nonzero(0));
  EXPECT_TRUE(f.word_maybe_nonzero(63));
  EXPECT_TRUE(f.word_maybe_nonzero(64));
  EXPECT_FALSE(f.word_maybe_nonzero(1));

  // Clearing the only bit in a word clears the summary bit...
  f.reset(4096);
  EXPECT_FALSE(f.word_maybe_nonzero(64));
  // ...but clearing one of two bits keeps it.
  f.set(1);
  f.reset(0);
  EXPECT_TRUE(f.word_maybe_nonzero(0));
  expect_summary_covers_words(f);
  EXPECT_EQ(f.count(), 3u);
}

TEST(HierarchicalFrontier, SetAllAndClearAllMaintainSummary) {
  HierarchicalFrontier f(70000);  // >1 summary word, ragged tails
  f.set_all();
  expect_summary_covers_words(f);
  EXPECT_EQ(f.count(), 70000u);
  // Summary tail bits beyond num_words stay clear.
  const std::uint64_t tail = f.num_words() % 64;
  ASSERT_NE(tail, 0u);
  EXPECT_EQ(f.summary_words()[f.num_summary_words() - 1] >> tail, 0u);
  f.clear_all();
  EXPECT_TRUE(f.empty());
  for (std::uint64_t s = 0; s < f.num_summary_words(); ++s) {
    EXPECT_EQ(f.summary_words()[s], 0u);
  }
}

TEST(HierarchicalFrontier, SwapExchangesSummaries) {
  HierarchicalFrontier a(8192), b(8192);
  a.set(100);
  b.set(5000);
  a.swap(b);
  EXPECT_TRUE(a.word_maybe_nonzero(5000 >> 6));
  EXPECT_FALSE(a.word_maybe_nonzero(100 >> 6));
  EXPECT_TRUE(b.word_maybe_nonzero(100 >> 6));
  expect_summary_covers_words(a);
  expect_summary_covers_words(b);
}

TEST(HierarchicalFrontier, AnyInWordRangeMatchesBruteForce) {
  HierarchicalFrontier f(20000);
  for (VertexId v : {64u, 4100u, 12345u, 19999u}) f.set(v);
  const auto brute = [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t w = lo; w < hi && w < f.num_words(); ++w) {
      if (f.words()[w] != 0) return true;
    }
    return false;
  };
  const std::uint64_t probes[] = {0,  1,  2,  63,  64,  65,  127, 128,
                                  129, 192, 193, 250, 312, f.num_words()};
  for (std::uint64_t lo : probes) {
    for (std::uint64_t hi : probes) {
      if (lo >= hi) continue;
      EXPECT_EQ(f.any_in_word_range(lo, hi), brute(lo, hi))
          << "range [" << lo << ", " << hi << ")";
    }
  }
}

TEST(HierarchicalFrontier, AnyInWordRangeSingleWord) {
  HierarchicalFrontier f(256);
  f.set(70);  // word 1
  EXPECT_FALSE(f.any_in_word_range(0, 1));
  EXPECT_TRUE(f.any_in_word_range(1, 2));
  EXPECT_TRUE(f.any_in_word_range(0, 4));
  EXPECT_FALSE(f.any_in_word_range(2, 4));
}

TEST(HierarchicalFrontier, CountAndForEachUseSummary) {
  HierarchicalFrontier f(100000);
  std::vector<VertexId> members;
  for (VertexId v = 17; v < 100000; v += 977) members.push_back(v);
  for (VertexId v : members) f.set(v);
  EXPECT_EQ(f.count(), members.size());
  std::vector<VertexId> seen;
  f.for_each([&](VertexId v) { seen.push_back(v); });
  EXPECT_EQ(seen, members);
  EXPECT_FALSE(f.empty());
}

TEST(HierarchicalFrontier, ConcurrentAtomicSetsPublishSummary) {
  HierarchicalFrontier f(100000);
  ThreadPool pool(8);
  // All 8 threads hammer vertices that share summary words.
  pool.run([&](unsigned tid) {
    for (VertexId v = tid; v < 100000; v += 8) f.set_atomic(v);
  });
  EXPECT_EQ(f.count(), 100000u);
  expect_summary_covers_words(f);
}

TEST(HierarchicalFrontier, TestAndSetAtomicReportsOwnership) {
  HierarchicalFrontier f(128);
  EXPECT_TRUE(f.test_and_set_atomic(90));
  EXPECT_FALSE(f.test_and_set_atomic(90));
  EXPECT_TRUE(f.test(90));
  EXPECT_TRUE(f.word_maybe_nonzero(1));
}

TEST(HierarchicalFrontier, ResetAtomicClearsBitButNotSummary) {
  HierarchicalFrontier f(128);
  f.set(90);
  f.set(91);
  f.reset_atomic(90);
  EXPECT_FALSE(f.test(90));
  EXPECT_TRUE(f.test(91));
  // The word empties, but the summary bit stays set: conservative, not
  // unsound, and the queries that read data words still answer exactly.
  f.reset_atomic(91);
  EXPECT_TRUE(f.word_maybe_nonzero(1));
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.count(), 0u);
  EXPECT_TRUE(f.test_and_set_atomic(90));
  expect_summary_covers_words(f);
}

TEST(HierarchicalFrontier, ConcurrentTestAndSetAndResetAtomicLoseNothing) {
  // The async worklist's pattern: threads set and clear their own bits
  // in shared words. Each bit has one owner, so every test-and-set must
  // find it clear; a lost clear (or a clobbered set) would show up as a
  // failed claim or a leftover member.
  HierarchicalFrontier f(4096);
  ThreadPool pool(4);
  std::vector<std::uint64_t> failed_claims(pool.size(), 0);
  pool.run([&](unsigned tid) {
    for (int round = 0; round < 50; ++round) {
      for (VertexId v = tid; v < 4096; v += 4) {
        if (!f.test_and_set_atomic(v)) ++failed_claims[tid];
      }
      for (VertexId v = tid; v < 4096; v += 4) f.reset_atomic(v);
    }
  });
  for (std::uint64_t n : failed_claims) EXPECT_EQ(n, 0u);
  EXPECT_EQ(f.count(), 0u);
}

}  // namespace
}  // namespace grazelle
