// Cache-blocked pull coverage (DESIGN.md §10): BlockIndex sizing math
// and build invariants (including degenerate graphs), the
// partition-time degenerate inputs that feed the block builder,
// bitwise identity of blocked vs unblocked execution across every pull
// mode with gating on and off, and the engine's blocking/prefetch
// plumbing (option resolution, accessors, telemetry counters).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "apps/bfs.h"
#include "apps/connected_components.h"
#include "apps/pagerank.h"
#include "core/engine.h"
#include "gen/rmat.h"
#include "graph/block_index.h"
#include "graph/partition.h"
#include "platform/bits.h"
#include "platform/cpu_features.h"
#include "platform/prefetch.h"
#include "telemetry/telemetry.h"

namespace grazelle {
namespace {

EdgeList rmat_graph() {
  gen::RmatParams p;
  p.scale = 9;
  p.num_edges = 4000;
  p.a = 0.6;
  p.b = 0.15;
  p.c = 0.19;
  EdgeList list = gen::generate_rmat(p);
  list.canonicalize();
  return list;
}

/// One vertex receives an edge from everyone: the hub's in-edge
/// vectors span every source block.
EdgeList star_graph(std::uint64_t n) {
  EdgeList list(n);
  for (VertexId v = 1; v < n; ++v) list.add_edge(v, 0);
  list.canonicalize();
  return list;
}

// ---------------------------------------------------------------------------
// shift_for_budget

TEST(BlockIndexSizing, ShiftMatchesBudgetExactly) {
  // 1 MiB budget over 8-byte values: 2^17 sources fill it exactly.
  EXPECT_EQ(BlockIndex::shift_for_budget(1u << 20, 8, 1u << 20), 17u);
}

TEST(BlockIndexSizing, TinyBudgetClampsToMinSources) {
  // A 1-byte budget can't go below 64 sources per block (shift 6).
  EXPECT_EQ(BlockIndex::shift_for_budget(1000, 8, 1), 6u);
}

TEST(BlockIndexSizing, ShiftRisesToRespectMaxBlocks) {
  // 2^20 vertices at shift 6 would need 16384 blocks; the shift must
  // rise until ceil(2^20 / 2^shift) <= kMaxBlocks = 256.
  EXPECT_EQ(BlockIndex::shift_for_budget(1u << 20, 8, 1), 12u);
}

TEST(BlockIndexSizing, DegenerateInputsStayInRange) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{1} << 40}) {
    for (std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{1},
                                 std::uint64_t{1} << 40}) {
      const unsigned shift = BlockIndex::shift_for_budget(v, 8, budget);
      EXPECT_GE(shift, 6u);
      EXPECT_LE(shift, 48u);
      if (v > 0) {
        EXPECT_LE(bits::ceil_div(v, std::uint64_t{1} << shift),
                  std::uint64_t{BlockIndex::kMaxBlocks});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BlockIndex::build invariants

/// Every destination's segment table must be a non-decreasing
/// partition of its vector range, and each vector must land in the
/// block owning its first (lowest) source.
void check_index_invariants(const VectorSparseGraph& vsd,
                            const BlockIndex& blocks) {
  ASSERT_TRUE(blocks.present());
  const auto index = vsd.index();
  const auto vectors = vsd.vectors();
  for (std::uint64_t d = 0; d < vsd.num_vertices(); ++d) {
    const std::uint32_t vc = index[d].vector_count;
    std::uint32_t prev = 0;
    for (std::uint32_t b = 0; b < blocks.num_blocks(); ++b) {
      const std::uint32_t lo = blocks.split(d, b, vc);
      const std::uint32_t hi = blocks.split(d, b + 1, vc);
      ASSERT_GE(lo, prev) << "dest " << d << " block " << b;
      ASSERT_LE(hi, vc) << "dest " << d << " block " << b;
      ASSERT_LE(lo, hi) << "dest " << d << " block " << b;
      for (std::uint32_t vi = lo; vi < hi; ++vi) {
        ASSERT_EQ(blocks.block_of(
                      vectors[index[d].first_vector + vi].first_source()),
                  b)
            << "dest " << d << " vector " << vi;
      }
      prev = hi;
    }
    ASSERT_EQ(blocks.split(d, blocks.num_blocks(), vc), vc);
  }
}

TEST(BlockIndexBuild, RmatInvariantsHold) {
  const Graph g = Graph::build(rmat_graph());
  for (unsigned shift : {6u, 7u, 8u}) {
    const BlockIndex blocks = BlockIndex::build(g.vsd(), shift);
    EXPECT_FALSE(blocks.trivial());
    check_index_invariants(g.vsd(), blocks);
  }
}

TEST(BlockIndexBuild, StarHubSpansEveryBlock) {
  const Graph g = Graph::build(star_graph(512));
  const BlockIndex blocks = BlockIndex::build(g.vsd(), 6);
  ASSERT_EQ(blocks.num_blocks(), 8u);
  check_index_invariants(g.vsd(), blocks);
  // The hub (dest 0) has in-edges from every other vertex, so all its
  // interior splits are distinct: every block holds some of its work.
  const std::uint32_t vc = g.vsd().index()[0].vector_count;
  for (std::uint32_t b = 0; b < blocks.num_blocks(); ++b) {
    EXPECT_LT(blocks.split(0, b, vc), blocks.split(0, b + 1, vc))
        << "block " << b;
  }
}

TEST(BlockIndexBuild, DegenerateGraphsYieldTrivialIndex) {
  // 0 vertices.
  {
    const Graph g = Graph::build(EdgeList(0));
    const BlockIndex blocks = BlockIndex::build(g.vsd(), 6);
    EXPECT_TRUE(blocks.present());
    EXPECT_TRUE(blocks.trivial());
  }
  // Vertices but no edges.
  {
    const Graph g = Graph::build(EdgeList(100));
    const BlockIndex blocks = BlockIndex::build(g.vsd(), 6);
    EXPECT_TRUE(blocks.present());
    EXPECT_EQ(blocks.num_blocks(), 2u);
    check_index_invariants(g.vsd(), blocks);
  }
  // A default-constructed index is absent, not trivial-but-present.
  EXPECT_FALSE(BlockIndex().present());
}

TEST(BlockIndexBuild, OversizedShiftRequestIsClamped) {
  const Graph g = Graph::build(rmat_graph());
  const BlockIndex blocks = BlockIndex::build(g.vsd(), 90);
  EXPECT_TRUE(blocks.present());
  EXPECT_TRUE(blocks.trivial());
  EXPECT_LE(blocks.source_shift(), 48u);
}

TEST(BlockIndexBuild, GraphBuildAttachesAnIndex) {
  const Graph g = Graph::build(rmat_graph());
  EXPECT_TRUE(g.vsd_blocks().present());
  check_index_invariants(g.vsd(), g.vsd_blocks());
}

// ---------------------------------------------------------------------------
// Partition degenerate inputs (the block builder's upstream)

TEST(PartitionDegenerate, EmptyAndEdgelessGraphsCoverEverything) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{17}}) {
    const Graph g = Graph::build(EdgeList(v));
    for (unsigned nodes : {1u, 2u, 4u, 7u}) {
      const std::vector<NumaPiece> pieces =
          partition_vector_sparse(g.vsd(), nodes);
      ASSERT_EQ(pieces.size(), nodes) << "v=" << v << " nodes=" << nodes;
      std::uint64_t vec_cursor = 0;
      std::uint64_t vtx_cursor = 0;
      for (const NumaPiece& p : pieces) {
        EXPECT_EQ(p.vectors.begin, vec_cursor);
        EXPECT_EQ(p.vertices.begin, vtx_cursor);
        EXPECT_LE(p.vectors.begin, p.vectors.end);
        EXPECT_LE(p.vertices.begin, p.vertices.end);
        vec_cursor = p.vectors.end;
        vtx_cursor = p.vertices.end;
      }
      EXPECT_EQ(vec_cursor, g.vsd().num_vectors());
      EXPECT_EQ(vtx_cursor, g.num_vertices());
    }
  }
}

TEST(PartitionDegenerate, MorePiecesThanVerticesStillCovers) {
  const Graph g = Graph::build(star_graph(3));
  const std::vector<NumaPiece> pieces = partition_vector_sparse(g.vsd(), 8);
  ASSERT_EQ(pieces.size(), 8u);
  EXPECT_EQ(pieces.back().vectors.end, g.vsd().num_vectors());
  EXPECT_EQ(pieces.back().vertices.end, g.num_vertices());
}

// ---------------------------------------------------------------------------
// Blocked == unblocked, bit for bit

struct BlockedConfig {
  PullParallelism mode;
  bool vectorized;
  unsigned threads;
  std::uint64_t chunk_vectors;
  bool gated;
};

std::string config_name(const ::testing::TestParamInfo<BlockedConfig>& info) {
  const BlockedConfig& c = info.param;
  std::string mode;
  switch (c.mode) {
    case PullParallelism::kSequential: mode = "Seq"; break;
    case PullParallelism::kVertexParallel: mode = "VtxPar"; break;
    case PullParallelism::kTraditional: mode = "Trad"; break;
    case PullParallelism::kTraditionalNoAtomic: mode = "TradNA"; break;
    case PullParallelism::kSchedulerAware: mode = "SchedAware"; break;
  }
  return mode + (c.vectorized ? "Vec" : "Scalar") + "T" +
         std::to_string(c.threads) + "C" + std::to_string(c.chunk_vectors) +
         (c.gated ? "Gated" : "");
}

std::vector<BlockedConfig> make_configs() {
  std::vector<BlockedConfig> configs;
  const std::vector<bool> vec_options =
      vector_kernels_available() ? std::vector<bool>{false, true}
                                 : std::vector<bool>{false};
  for (bool vec : vec_options) {
    for (bool gated : {false, true}) {
      configs.push_back({PullParallelism::kSequential, vec, 1, 0, gated});
      configs.push_back({PullParallelism::kVertexParallel, vec, 4, 0, gated});
      configs.push_back({PullParallelism::kTraditional, vec, 4, 16, gated});
      configs.push_back(
          {PullParallelism::kTraditionalNoAtomic, vec, 1, 16, gated});
      configs.push_back({PullParallelism::kSchedulerAware, vec, 4, 8, gated});
    }
  }
  return configs;
}

/// Blocking forced non-trivial: a 512-byte working-set budget over
/// 8-byte values gives 64-source blocks (8 blocks on 512 vertices).
EngineOptions blocked_options(const BlockedConfig& c, bool blocked) {
  EngineOptions o;
  o.num_threads = c.threads;
  o.chunk_vectors = c.chunk_vectors;
  o.pull_mode = c.mode;
  o.direction.select = EngineSelect::kPullOnly;
  o.blocking.enabled = blocked;
  o.blocking.block_bytes = 512;
  if (c.gated) {
    o.gating.enabled = true;
    o.gating.density_divisor = 0;  // gate every pull iteration
  }
  return o;
}

template <typename P, typename Fn>
void with_engine(const Graph& g, const EngineOptions& opts, bool vectorized,
                 Fn&& fn) {
#if defined(GRAZELLE_HAVE_AVX2)
  if (vectorized) {
    Engine<P, true> engine(g, opts);
    fn(engine);
    return;
  }
#else
  ASSERT_FALSE(vectorized) << "vector kernels not built";
#endif
  Engine<P, false> engine(g, opts);
  fn(engine);
}

class BlockedSweep : public ::testing::TestWithParam<BlockedConfig> {};

// PageRank's add is grouping-sensitive and Traditional publishes one
// atomic combine per vector, so past one worker its combine order (and
// the last ULPs) varies run to run. Per the determinism contract
// (DESIGN.md §5) it runs single-threaded here; the min-combined CC and
// BFS cases below keep 4 threads.
TEST_P(BlockedSweep, PageRankBitIdentical) {
  BlockedConfig c = GetParam();
  if (c.mode == PullParallelism::kTraditional) c.threads = 1;
  const Graph g = Graph::build(rmat_graph());
  std::vector<double> base, blocked;
  for (bool blk : {false, true}) {
    with_engine<apps::PageRank>(g, blocked_options(c, blk), c.vectorized,
                                [&](auto& engine) {
      EXPECT_EQ(engine.blocking_active(), blk);
      apps::PageRank pr(g, engine.pool().size());
      engine.run(pr, 10);
      auto& out = blk ? blocked : base;
      out.assign(pr.ranks().begin(), pr.ranks().end());
      if (blk) EXPECT_GT(engine.last_blocks_executed(), 0u);
    });
  }
  ASSERT_EQ(base.size(), blocked.size());
  EXPECT_EQ(std::memcmp(base.data(), blocked.data(),
                        base.size() * sizeof(double)),
            0);
}

TEST_P(BlockedSweep, ConnectedComponentsBitIdentical) {
  const BlockedConfig& c = GetParam();
  const Graph g = Graph::build(rmat_graph());
  std::vector<std::uint64_t> base, blocked;
  for (bool blk : {false, true}) {
    with_engine<apps::ConnectedComponents>(g, blocked_options(c, blk),
                                           c.vectorized, [&](auto& engine) {
      apps::ConnectedComponents cc(g);
      engine.frontier().set_all();
      engine.run(cc, 1000);
      auto& out = blk ? blocked : base;
      out.assign(cc.labels().begin(), cc.labels().end());
    });
  }
  ASSERT_EQ(base.size(), blocked.size());
  EXPECT_EQ(std::memcmp(base.data(), blocked.data(),
                        base.size() * sizeof(std::uint64_t)),
            0);
}

TEST_P(BlockedSweep, BfsParentsBitIdentical) {
  const BlockedConfig& c = GetParam();
  const Graph g = Graph::build(rmat_graph());
  std::vector<std::uint64_t> base, blocked;
  for (bool blk : {false, true}) {
    with_engine<apps::BreadthFirstSearch>(g, blocked_options(c, blk),
                                          c.vectorized, [&](auto& engine) {
      apps::BreadthFirstSearch bfs(g, 0);
      bfs.seed(engine.frontier());
      engine.run(bfs, 1u << 20);
      auto& out = blk ? blocked : base;
      out.assign(bfs.parents().begin(), bfs.parents().end());
    });
  }
  ASSERT_EQ(base.size(), blocked.size());
  EXPECT_EQ(std::memcmp(base.data(), blocked.data(),
                        base.size() * sizeof(std::uint64_t)),
            0);
}

TEST_P(BlockedSweep, StarGraphBitIdentical) {
  // The hub's vector range crosses every block and (for small chunks)
  // many scheduler chunks — the worst case for the merge protocol.
  const BlockedConfig& c = GetParam();
  const Graph g = Graph::build(star_graph(600));
  std::vector<double> base, blocked;
  for (bool blk : {false, true}) {
    with_engine<apps::PageRank>(g, blocked_options(c, blk), c.vectorized,
                                [&](auto& engine) {
      apps::PageRank pr(g, engine.pool().size());
      engine.run(pr, 10);
      auto& out = blk ? blocked : base;
      out.assign(pr.ranks().begin(), pr.ranks().end());
    });
  }
  ASSERT_EQ(base.size(), blocked.size());
  EXPECT_EQ(std::memcmp(base.data(), blocked.data(),
                        base.size() * sizeof(double)),
            0);
}

INSTANTIATE_TEST_SUITE_P(AllModes, BlockedSweep,
                         ::testing::ValuesIn(make_configs()), config_name);

// ---------------------------------------------------------------------------
// Engine plumbing

TEST(BlockingEngine, InactiveWhenDisabledOrTrivial) {
  const Graph g = Graph::build(rmat_graph());
  EngineOptions off;
  off.num_threads = 1;
  Engine<apps::PageRank, false> plain(g, off);
  EXPECT_FALSE(plain.blocking_active());
  EXPECT_EQ(plain.block_index(), nullptr);
  EXPECT_EQ(plain.last_blocks_executed(), 0u);

  // Enabled, but the graph fits one block under the default budget:
  // blocking resolves to inactive rather than pure overhead.
  EngineOptions big = off;
  big.blocking.enabled = true;
  big.blocking.block_bytes = std::uint64_t{1} << 30;
  Engine<apps::PageRank, false> trivial(g, big);
  EXPECT_FALSE(trivial.blocking_active());
}

TEST(BlockingEngine, ActiveEngineReportsBlocks) {
  const Graph g = Graph::build(rmat_graph());
  EngineOptions opts;
  opts.num_threads = 2;
  opts.direction.select = EngineSelect::kPullOnly;
  opts.blocking.enabled = true;
  opts.blocking.block_bytes = 512;
  Engine<apps::PageRank, false> engine(g, opts);
  ASSERT_TRUE(engine.blocking_active());
  ASSERT_NE(engine.block_index(), nullptr);
  EXPECT_EQ(engine.block_index()->num_blocks(), 8u);

  apps::PageRank pr(g, engine.pool().size());
  const RunStats stats = engine.run(pr, 3);
  EXPECT_EQ(stats.blocked_iterations, 3u);
  EXPECT_GT(engine.last_blocks_executed(), 0u);
  for (const IterationStats& it : stats.per_iteration) {
    EXPECT_TRUE(it.blocked);
    EXPECT_GT(it.blocks_executed, 0u);
  }
}

TEST(BlockingEngine, PrefetchDistanceResolution) {
  const Graph g = Graph::build(rmat_graph());
  EngineOptions opts;
  opts.num_threads = 1;

  opts.prefetch.enabled = false;
  EXPECT_EQ((Engine<apps::PageRank, false>(g, opts).prefetch_distance()), 0u);

  opts.prefetch.enabled = true;
  opts.prefetch.distance = 5;
  EXPECT_EQ((Engine<apps::PageRank, false>(g, opts).prefetch_distance()), 5u);

  // Auto mode gates on working-set size: the 512-vertex test graph's
  // source values are trivially LLC-resident, so the resolved distance
  // is 0 (prefetch off) without ever consulting the probe. Only when
  // the value array outgrows the detected LLC does auto fall through
  // to platform::default_prefetch_distance().
  opts.prefetch.distance = 0;  // auto
  EXPECT_EQ((Engine<apps::PageRank, false>(g, opts).prefetch_distance()), 0u);
}

TEST(BlockingEngine, TelemetryCountsBlocks) {
  const Graph g = Graph::build(rmat_graph());
  EngineOptions opts;
  opts.num_threads = 2;
  opts.direction.select = EngineSelect::kPullOnly;
  opts.blocking.enabled = true;
  opts.blocking.block_bytes = 512;
  Engine<apps::PageRank, false> engine(g, opts);
  ASSERT_TRUE(engine.blocking_active());

  telemetry::Telemetry t(engine.pool().size());
  engine.set_telemetry(&t);
  apps::PageRank pr(g, engine.pool().size());
  engine.run(pr, 2);
  const telemetry::CounterArray counters = t.counters();
  EXPECT_GT(
      counters[static_cast<unsigned>(telemetry::Counter::kBlocksExecuted)],
      0u);
}

}  // namespace
}  // namespace grazelle
