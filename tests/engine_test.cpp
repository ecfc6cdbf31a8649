// Engine correctness: every pull-parallelization mode, both kernels
// (scalar and AVX2), push and hybrid drivers, across adversarial graph
// shapes — all checked against serial references.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "apps/bfs.h"
#include "apps/connected_components.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "apps/weighted_rank.h"
#include "core/engine.h"
#include "gen/rmat.h"
#include "gen/synthetic.h"
#include "platform/cpu_features.h"
#include "reference_impls.h"

namespace grazelle {
namespace {

// ---------------------------------------------------------------------------
// Graph fixtures

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

/// One vertex receives an edge from everyone: its in-edge vectors span
/// many scheduler chunks, stressing the merge-buffer protocol.
EdgeList star_graph(std::uint64_t n) {
  EdgeList list(n);
  for (VertexId v = 1; v < n; ++v) list.add_edge(v, 0);
  // A few extra edges so other vertices also have work.
  for (VertexId v = 1; v + 1 < n; ++v) list.add_edge(v, v + 1);
  return list;
}

EdgeList grid_graph() { return gen::generate_grid(24, 16); }

/// A long chain: BFS advances exactly one vertex per iteration, the
/// extreme sparse-frontier case frontier gating targets.
EdgeList path_graph(std::uint64_t n) {
  EdgeList list(n);
  for (VertexId v = 0; v + 1 < n; ++v) list.add_edge(v, v + 1);
  return list;
}

// ---------------------------------------------------------------------------
// Parameterized sweep: (mode, vectorized, threads, chunk_vectors)

struct EngineConfig {
  PullParallelism mode;
  bool vectorized;
  unsigned threads;
  std::uint64_t chunk_vectors;
};

std::string config_name(const ::testing::TestParamInfo<EngineConfig>& info) {
  const EngineConfig& c = info.param;
  std::string mode;
  switch (c.mode) {
    case PullParallelism::kSequential: mode = "Seq"; break;
    case PullParallelism::kVertexParallel: mode = "VtxPar"; break;
    case PullParallelism::kTraditional: mode = "Trad"; break;
    case PullParallelism::kTraditionalNoAtomic: mode = "TradNA"; break;
    case PullParallelism::kSchedulerAware: mode = "SchedAware"; break;
  }
  return mode + (c.vectorized ? "Vec" : "Scalar") + "T" +
         std::to_string(c.threads) + "C" + std::to_string(c.chunk_vectors);
}

std::vector<EngineConfig> make_configs() {
  std::vector<EngineConfig> configs;
  const std::vector<bool> vec_options =
      vector_kernels_available() ? std::vector<bool>{false, true}
                                 : std::vector<bool>{false};
  for (bool vec : vec_options) {
    configs.push_back({PullParallelism::kSequential, vec, 1, 0});
    configs.push_back({PullParallelism::kVertexParallel, vec, 4, 0});
    configs.push_back({PullParallelism::kTraditional, vec, 4, 16});
    // Non-atomic traditional is only race-free single-threaded.
    configs.push_back({PullParallelism::kTraditionalNoAtomic, vec, 1, 16});
    configs.push_back({PullParallelism::kSchedulerAware, vec, 1, 8});
    configs.push_back({PullParallelism::kSchedulerAware, vec, 4, 2});
    configs.push_back({PullParallelism::kSchedulerAware, vec, 4, 64});
    configs.push_back({PullParallelism::kSchedulerAware, vec, 7, 0});
  }
  return configs;
}

EngineOptions options_for(const EngineConfig& c,
                          EngineSelect select = EngineSelect::kPullOnly) {
  EngineOptions o;
  o.num_threads = c.threads;
  o.chunk_vectors = c.chunk_vectors;
  o.pull_mode = c.mode;
  o.direction.select = select;
  return o;
}

template <typename P>
using EngineScalar = Engine<P, false>;
#if defined(GRAZELLE_HAVE_AVX2)
template <typename P>
using EngineVector = Engine<P, true>;
#endif

/// Runs `fn` with the right engine instantiation for `vectorized`.
template <typename P, typename Fn>
void with_engine(const Graph& g, const EngineOptions& opts, bool vectorized,
                 Fn&& fn) {
#if defined(GRAZELLE_HAVE_AVX2)
  if (vectorized) {
    EngineVector<P> engine(g, opts);
    fn(engine);
    return;
  }
#else
  ASSERT_FALSE(vectorized) << "vector kernels not built";
#endif
  EngineScalar<P> engine(g, opts);
  fn(engine);
}

class EngineSweep : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(EngineSweep, PageRankMatchesReference) {
  const EngineConfig& c = GetParam();
  std::vector<EdgeList> graphs;
  graphs.push_back(rmat_graph());
  graphs.push_back(star_graph(600));
  for (EdgeList& list : graphs) {
    list.canonicalize();
    const Graph g = Graph::build(EdgeList(list));
    const auto expected = testing::reference_pagerank(list, 10);

    with_engine<apps::PageRank>(g, options_for(c), c.vectorized,
                                [&](auto& engine) {
      apps::PageRank pr(g, engine.pool().size());
      engine.run(pr, 10);
      pr.finalize();
      EXPECT_NEAR(pr.rank_sum(), 1.0, 1e-9);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_NEAR(pr.ranks()[v], expected[v], 1e-10) << "vertex " << v;
      }
    });
  }
}

TEST_P(EngineSweep, ConnectedComponentsMatchesFixpoint) {
  const EngineConfig& c = GetParam();
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  const auto expected = testing::reference_min_labels(list);

  with_engine<apps::ConnectedComponents>(g, options_for(c), c.vectorized,
                                         [&](auto& engine) {
    apps::ConnectedComponents cc(g);
    engine.frontier().set_all();
    engine.run(cc, 1000);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(cc.labels()[v], expected[v]) << "vertex " << v;
    }
  });
}

TEST_P(EngineSweep, BfsParentsMatchReference) {
  const EngineConfig& c = GetParam();
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  const VertexId root = 0;
  const auto expected = testing::reference_bfs_parents(list, root);

  with_engine<apps::BreadthFirstSearch>(g, options_for(c), c.vectorized,
                                        [&](auto& engine) {
    apps::BreadthFirstSearch bfs(g, root);
    bfs.seed(engine.frontier());
    engine.run(bfs, 1u << 20);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(bfs.parents()[v], expected[v]) << "vertex " << v;
    }
  });
}

TEST_P(EngineSweep, SsspMatchesBellmanFord) {
  const EngineConfig& c = GetParam();
  EdgeList unweighted = rmat_graph();
  EdgeList list = gen::with_random_weights(unweighted, 0.5, 3.0, 17);
  const Graph g = Graph::build(EdgeList(list));
  const VertexId source = 1;
  const auto expected = testing::reference_sssp(list, source);

  with_engine<apps::Sssp>(g, options_for(c), c.vectorized, [&](auto& engine) {
    apps::Sssp sssp(g, source);
    sssp.seed(engine.frontier());
    engine.run(sssp, static_cast<unsigned>(g.num_vertices() + 1));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (std::isinf(expected[v])) {
        ASSERT_TRUE(std::isinf(sssp.distances()[v])) << "vertex " << v;
      } else {
        ASSERT_NEAR(sssp.distances()[v], expected[v], 1e-9) << "vertex " << v;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, EngineSweep,
                         ::testing::ValuesIn(make_configs()), config_name);

// ---------------------------------------------------------------------------
// Frontier-gated pull: gated and ungated runs must produce bit-identical
// results in every pull-parallelization mode. gating.density_divisor = 0 forces
// the gate onto every pull iteration regardless of frontier density, so
// the skip logic is exercised even where the heuristic would keep it off
// (including scheduler-aware merge-buffer deposits at chunk boundaries —
// the star graph's hub spans many chunks).

class GatedEngineSweep : public ::testing::TestWithParam<EngineConfig> {};

EngineOptions gated_options_for(const EngineConfig& c) {
  EngineOptions o = options_for(c);
  o.gating.enabled = true;
  o.gating.density_divisor = 0;  // |F| * 0 <= V: gate every pull iteration
  return o;
}

TEST_P(GatedEngineSweep, BfsParentsIdenticalToUngated) {
  const EngineConfig& c = GetParam();
  std::vector<EdgeList> graphs;
  graphs.push_back(rmat_graph());
  graphs.push_back(path_graph(700));
  graphs.push_back(star_graph(600));
  for (EdgeList& list : graphs) {
    list.canonicalize();
    const Graph g = Graph::build(EdgeList(list));

    std::vector<VertexId> ungated(g.num_vertices());
    with_engine<apps::BreadthFirstSearch>(g, options_for(c), c.vectorized,
                                          [&](auto& engine) {
      apps::BreadthFirstSearch bfs(g, 0);
      bfs.seed(engine.frontier());
      engine.run(bfs, 1u << 20);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ungated[v] = bfs.parents()[v];
      }
    });

    with_engine<apps::BreadthFirstSearch>(g, gated_options_for(c),
                                          c.vectorized, [&](auto& engine) {
      apps::BreadthFirstSearch bfs(g, 0);
      bfs.seed(engine.frontier());
      engine.run(bfs, 1u << 20);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(bfs.parents()[v], ungated[v]) << "vertex " << v;
      }
    });
  }
}

TEST_P(GatedEngineSweep, CcLabelsIdenticalToUngated) {
  const EngineConfig& c = GetParam();
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  const auto expected = testing::reference_min_labels(list);

  with_engine<apps::ConnectedComponents>(g, gated_options_for(c),
                                         c.vectorized, [&](auto& engine) {
    apps::ConnectedComponents cc(g);
    engine.frontier().set_all();
    engine.run(cc, 1000);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(cc.labels()[v], expected[v]) << "vertex " << v;
    }
  });
}

TEST_P(GatedEngineSweep, PageRankUnaffectedByGatingFlag) {
  // PageRank has kUsesFrontier == false: the gate must be a no-op and
  // the ranks bit-identical to an ungated run. Traditional's per-vector
  // atomic adds land in a scheduling-dependent order past one worker,
  // so it runs single-threaded (determinism contract, DESIGN.md §5).
  EngineConfig c = GetParam();
  if (c.mode == PullParallelism::kTraditional) c.threads = 1;
  EdgeList list = rmat_graph();
  list.canonicalize();
  const Graph g = Graph::build(EdgeList(list));

  std::vector<double> ungated(g.num_vertices());
  with_engine<apps::PageRank>(g, options_for(c), c.vectorized,
                              [&](auto& engine) {
    apps::PageRank pr(g, engine.pool().size());
    engine.run(pr, 10);
    pr.finalize();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ungated[v] = pr.ranks()[v];
    }
  });

  with_engine<apps::PageRank>(g, gated_options_for(c), c.vectorized,
                              [&](auto& engine) {
    apps::PageRank pr(g, engine.pool().size());
    const RunStats stats = engine.run(pr, 10);
    pr.finalize();
    EXPECT_EQ(stats.gated_iterations, 0u);
    EXPECT_EQ(stats.vectors_skipped, 0u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(pr.ranks()[v], ungated[v]) << "vertex " << v;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, GatedEngineSweep,
                         ::testing::ValuesIn(make_configs()), config_name);

TEST(GatedEngine, SkipsVectorsOnSparseFrontiers) {
  // A chain BFS keeps the frontier at one vertex; nearly every edge
  // vector must be skipped once the engine pulls.
  EdgeList list = path_graph(3000);
  const Graph g = Graph::build(EdgeList(list));
  EngineOptions opts;
  opts.num_threads = 4;
  opts.direction.select = EngineSelect::kPullOnly;
  opts.gating.enabled = true;
  Engine<apps::BreadthFirstSearch, false> engine(g, opts);
  apps::BreadthFirstSearch bfs(g, 0);
  bfs.seed(engine.frontier());
  const RunStats stats = engine.run(bfs, 1u << 20);
  EXPECT_GT(stats.gated_iterations, 0u);
  EXPECT_GT(stats.vectors_skipped, 0u);
  // Sanity: the traversal still reached the end of the chain.
  EXPECT_EQ(bfs.parents()[2999], 2998u);
}

TEST(GatedEngine, GateStaysOffOnDenseFrontiers) {
  // With the default density threshold, a full frontier must not gate.
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  EngineOptions opts;
  opts.num_threads = 4;
  opts.direction.select = EngineSelect::kPullOnly;
  opts.gating.enabled = true;  // default density_divisor = 32
  Engine<apps::ConnectedComponents, false> engine(g, opts);
  apps::ConnectedComponents cc(g);
  engine.frontier().set_all();
  const RunStats stats = engine.run(cc, 1000);
  ASSERT_FALSE(stats.per_iteration.empty());
  EXPECT_FALSE(stats.per_iteration.front().gated);
  const auto expected = testing::reference_min_labels(list);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(cc.labels()[v], expected[v]);
  }
}

TEST(GatedEngine, GatingWidensPullBand) {
  // The same frontier state that pushes under the classic heuristic
  // pulls when gating widens the band.
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  const auto expected = testing::reference_bfs_parents(list, 0);
  for (bool gating : {false, true}) {
    EngineOptions opts;
    opts.num_threads = 4;
    opts.direction.select = EngineSelect::kAuto;
    opts.gating.enabled = gating;
    Engine<apps::BreadthFirstSearch, false> engine(g, opts);
    apps::BreadthFirstSearch bfs(g, 0);
    bfs.seed(engine.frontier());
    const RunStats stats = engine.run(bfs, 1u << 20);
    if (gating) {
      // The widened band converts at least one classic push iteration
      // into a (gated) pull.
      EXPECT_GT(stats.pull_iterations, 0u);
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(bfs.parents()[v], expected[v]) << "gating " << gating;
    }
  }
}

// ---------------------------------------------------------------------------
// Push engine and hybrid driver

TEST(PushEngine, PageRankMatchesPull) {
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  const auto expected = testing::reference_pagerank(list, 5);

  EngineOptions opts;
  opts.num_threads = 4;
  opts.direction.select = EngineSelect::kPushOnly;
  Engine<apps::PageRank, false> engine(g, opts);
  apps::PageRank pr(g, engine.pool().size());
  engine.run(pr, 5);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NEAR(pr.ranks()[v], expected[v], 1e-10);
  }
}

TEST(PushEngine, BfsMatchesReference) {
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  const auto expected = testing::reference_bfs_parents(list, 0);

  EngineOptions opts;
  opts.num_threads = 4;
  opts.direction.select = EngineSelect::kPushOnly;
  Engine<apps::BreadthFirstSearch, false> engine(g, opts);
  apps::BreadthFirstSearch bfs(g, 0);
  bfs.seed(engine.frontier());
  engine.run(bfs, 1u << 20);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(bfs.parents()[v], expected[v]) << "vertex " << v;
  }
}

TEST(HybridEngine, BfsSwitchesDirectionsAndMatches) {
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  const auto expected = testing::reference_bfs_parents(list, 0);

  EngineOptions opts;
  opts.num_threads = 4;
  opts.direction.select = EngineSelect::kAuto;
  Engine<apps::BreadthFirstSearch, false> engine(g, opts);
  apps::BreadthFirstSearch bfs(g, 0);
  bfs.seed(engine.frontier());
  const RunStats stats = engine.run(bfs, 1u << 20);
  // On a skewed graph from a single root, a hybrid run should use both
  // engines at least once (small initial frontier -> push; big middle
  // frontier -> pull).
  EXPECT_GT(stats.push_iterations, 0u);
  EXPECT_GT(stats.pull_iterations, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(bfs.parents()[v], expected[v]) << "vertex " << v;
  }
}

TEST(HybridEngine, CcOnMeshMatches) {
  EdgeList list = grid_graph();
  const Graph g = Graph::build(EdgeList(list));
  const auto expected = testing::reference_min_labels(list);

  EngineOptions opts;
  opts.num_threads = 4;
  Engine<apps::ConnectedComponents, false> engine(g, opts);
  apps::ConnectedComponents cc(g);
  engine.frontier().set_all();
  engine.run(cc, 10000);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(cc.labels()[v], expected[v]);
  }
  // A connected symmetric mesh collapses to a single label.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(cc.labels()[v], 0u);
  }
}

TEST(HybridEngine, WriteIntenseCcSameResult) {
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  const auto expected = testing::reference_min_labels(list);

  EngineOptions opts;
  opts.num_threads = 4;
  opts.pull_mode = PullParallelism::kTraditional;
  Engine<apps::ConnectedComponentsWriteIntense, false> engine(g, opts);
  apps::ConnectedComponentsWriteIntense cc(g);
  engine.frontier().set_all();
  engine.run(cc, 1000);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(cc.labels()[v], expected[v]);
  }
}

TEST(WeightedRankApp, ConvergesAndStaysFinite) {
  EdgeList unweighted = rmat_graph();
  EdgeList list = gen::with_random_weights(unweighted, 0.1, 1.0, 23);
  const Graph g = Graph::build(EdgeList(list));

  EngineOptions opts;
  opts.num_threads = 4;
  Engine<apps::WeightedRank, false> engine(g, opts);
  apps::WeightedRank wr(g);
  engine.run(wr, 20);
  double sum = 0.0;
  for (double s : wr.scores()) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GT(s, 0.0);
    sum += s;
  }
  EXPECT_GT(sum, 0.1);  // mass retained
}

TEST(HybridEngine, SparsePushExtensionMatchesReference) {
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  const auto expected = testing::reference_bfs_parents(list, 0);

  EngineOptions opts;
  opts.num_threads = 4;
  opts.direction.sparse_push = true;
  Engine<apps::BreadthFirstSearch, false> engine(g, opts);
  apps::BreadthFirstSearch bfs(g, 0);
  bfs.seed(engine.frontier());
  const RunStats stats = engine.run(bfs, 1u << 20);
  // Single-root BFS starts with a frontier of 1 vertex — well below the
  // sparse threshold, so the sparse-push path must trigger.
  EXPECT_GT(stats.sparse_push_iterations, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(bfs.parents()[v], expected[v]) << "vertex " << v;
  }
}

TEST(HybridEngine, SparsePushOffByDefault) {
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  EngineOptions opts;
  opts.num_threads = 2;
  Engine<apps::BreadthFirstSearch, false> engine(g, opts);
  apps::BreadthFirstSearch bfs(g, 0);
  bfs.seed(engine.frontier());
  const RunStats stats = engine.run(bfs, 1u << 20);
  EXPECT_EQ(stats.sparse_push_iterations, 0u);
}

TEST(Engine, StatsReportIterations) {
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  EngineOptions opts;
  opts.num_threads = 2;
  Engine<apps::PageRank, false> engine(g, opts);
  apps::PageRank pr(g, engine.pool().size());
  const RunStats stats = engine.run(pr, 7);
  EXPECT_EQ(stats.iterations, 7u);
  EXPECT_EQ(stats.pull_iterations, 7u);  // PR never pushes
  EXPECT_EQ(stats.per_iteration.size(), 7u);
  EXPECT_GT(stats.total_seconds, 0.0);
}

TEST(Engine, EdgelessGraphTerminates) {
  EdgeList list(64);  // vertices, no edges
  const Graph g = Graph::build(std::move(list));
  EngineOptions opts;
  opts.num_threads = 2;
  Engine<apps::ConnectedComponents, false> engine(g, opts);
  apps::ConnectedComponents cc(g);
  engine.frontier().set_all();
  const RunStats stats = engine.run(cc, 100);
  EXPECT_LE(stats.iterations, 1u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(cc.labels()[v], v);  // every vertex its own component
  }
}

TEST(Engine, SingleVertexGraph) {
  EdgeList list(1);
  const Graph g = Graph::build(std::move(list));
  EngineOptions opts;
  opts.num_threads = 1;
  Engine<apps::PageRank, false> engine(g, opts);
  apps::PageRank pr(g, engine.pool().size());
  engine.run(pr, 3);
  pr.finalize();
  EXPECT_NEAR(pr.rank_sum(), 1.0, 1e-12);
  EXPECT_NEAR(pr.ranks()[0], 1.0, 1e-12);
}

TEST(Engine, ExtremeChunkGranularities) {
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  const auto expected = testing::reference_pagerank(list, 5);
  for (std::uint64_t chunk : {std::uint64_t{1}, std::uint64_t{1} << 40}) {
    EngineOptions opts;
    opts.num_threads = 4;
    opts.chunk_vectors = chunk;
    Engine<apps::PageRank, false> engine(g, opts);
    apps::PageRank pr(g, engine.pool().size());
    engine.run(pr, 5);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_NEAR(pr.ranks()[v], expected[v], 1e-10) << "chunk " << chunk;
    }
  }
}

TEST(Engine, MoreThreadsThanWork) {
  EdgeList tiny(8);
  tiny.add_edge(0, 1);
  tiny.add_edge(1, 2);
  const Graph g = Graph::build(std::move(tiny));
  EngineOptions opts;
  opts.num_threads = 16;  // far more threads than edge vectors
  Engine<apps::BreadthFirstSearch, false> engine(g, opts);
  apps::BreadthFirstSearch bfs(g, 0);
  bfs.seed(engine.frontier());
  engine.run(bfs, 100);
  EXPECT_EQ(bfs.parents()[1], 0u);
  EXPECT_EQ(bfs.parents()[2], 1u);
}

TEST(Engine, NumaPartitionRecorded) {
  EdgeList list = rmat_graph();
  const Graph g = Graph::build(EdgeList(list));
  EngineOptions opts;
  opts.num_threads = 4;
  opts.numa_nodes = 2;
  Engine<apps::PageRank, false> engine(g, opts);
  EXPECT_EQ(engine.numa_pieces().size(), 2u);
  EXPECT_GT(engine.topology().bytes_on_node(0), 0u);
  EXPECT_GT(engine.topology().bytes_on_node(1), 0u);
}

}  // namespace
}  // namespace grazelle
