// GraphContext/Session split (DESIGN.md §13): many concurrent
// Sessions over one shared, immutable GraphContext must produce
// answers bit-identical to one-shot Engines — across every pull mode,
// gating, blocking, and both lane widths — because the context holds
// only const state (graph, cached NUMA partitions, cached block
// indexes) and every mutable buffer is per-session. Also covers the
// multi-source BFS program (apps/msbfs.h): a fused k-source sweep
// returns per-source parents bit-identical to k sequential
// BreadthFirstSearch runs while touching measurably fewer edges, the
// amortization grazelle_serve's request coalescing banks on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs.h"
#include "apps/connected_components.h"
#include "apps/msbfs.h"
#include "apps/pagerank.h"
#include "core/engine.h"
#include "core/graph_context.h"
#include "core/session.h"
#include "gen/rmat.h"
#include "graph/store.h"
#include "platform/cpu_features.h"
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

struct SessionConfig {
  PullParallelism mode;
  bool vectorized;
  bool gated;
  bool blocked;
};

std::string config_name(const ::testing::TestParamInfo<SessionConfig>& info) {
  const SessionConfig& c = info.param;
  std::string mode;
  switch (c.mode) {
    case PullParallelism::kSequential: mode = "Seq"; break;
    case PullParallelism::kVertexParallel: mode = "VtxPar"; break;
    case PullParallelism::kTraditional: mode = "Trad"; break;
    case PullParallelism::kTraditionalNoAtomic: mode = "TradNA"; break;
    case PullParallelism::kSchedulerAware: mode = "SchedAware"; break;
  }
  return mode + (c.vectorized ? "Vec" : "Scalar") + (c.gated ? "Gated" : "") +
         (c.blocked ? "Blocked" : "");
}

std::vector<SessionConfig> make_configs() {
  std::vector<SessionConfig> configs;
  const std::vector<bool> vec_options =
      vector_kernels_available() ? std::vector<bool>{false, true}
                                 : std::vector<bool>{false};
  for (bool vec : vec_options) {
    for (bool gated : {false, true}) {
      for (bool blocked : {false, true}) {
        for (PullParallelism mode :
             {PullParallelism::kSequential, PullParallelism::kVertexParallel,
              PullParallelism::kTraditional,
              PullParallelism::kTraditionalNoAtomic,
              PullParallelism::kSchedulerAware}) {
          configs.push_back({mode, vec, gated, blocked});
        }
      }
    }
  }
  return configs;
}

/// TradNA's plain read-combine-stores lose updates under contention
/// (benchmark-only by design, DESIGN.md §5), so it gets one worker
/// whatever `threads` asks; the sessions still race each other.
EngineOptions session_options(const SessionConfig& c, unsigned threads) {
  EngineOptions o;
  o.num_threads =
      c.mode == PullParallelism::kTraditionalNoAtomic ? 1 : threads;
  o.pull_mode = c.mode;
  o.direction.select = EngineSelect::kPullOnly;
  o.blocking.enabled = c.blocked;
  o.blocking.block_bytes = 512;
  if (c.gated) {
    o.gating.enabled = true;
    o.gating.density_divisor = 0;  // gate every pull iteration
  }
  return o;
}

/// Runs `fn(session)` with the compile-time vectorization the config
/// asks for.
template <typename P, typename Fn>
void with_session(const GraphContext& ctx, const EngineOptions& opts,
                  bool vectorized, Fn&& fn) {
#if defined(GRAZELLE_HAVE_AVX2)
  if (vectorized) {
    Session<P, true> session(ctx, opts);
    fn(session);
    return;
  }
#else
  ASSERT_FALSE(vectorized) << "vector kernels not built";
#endif
  Session<P, false> session(ctx, opts);
  fn(session);
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

class SessionSweep : public ::testing::TestWithParam<SessionConfig> {};

// The core multi-tenancy guarantee: N sessions running *concurrently*
// over one GraphContext each produce the same parents a fresh one-shot
// Engine produces for their root. BFS parents are min-combined, an
// exact combine, so every mode is deterministic at the thread count
// session_options() gives it (one worker for TradNA).
TEST_P(SessionSweep, ConcurrentBfsSessionsMatchOneShotEngines) {
  const SessionConfig& c = GetParam();
  const Graph g = Graph::build(rmat_graph());
  const GraphContext ctx(&g, "shared");

  constexpr unsigned kSessions = 4;
  const VertexId roots[kSessions] = {0, 1, 7, 42};

  std::vector<std::vector<std::uint64_t>> expected(kSessions);
  for (unsigned s = 0; s < kSessions; ++s) {
    with_engine<apps::BreadthFirstSearch>(
        g, session_options(c, 2), c.vectorized, [&](auto& engine) {
          apps::BreadthFirstSearch bfs(g, roots[s]);
          bfs.seed(engine.frontier());
          engine.run(bfs, 1u << 20);
          expected[s].assign(bfs.parents().begin(), bfs.parents().end());
        });
  }

  std::vector<std::vector<std::uint64_t>> actual(kSessions);
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s]() {
      with_session<apps::BreadthFirstSearch>(
          ctx, session_options(c, 2), c.vectorized, [&](auto& session) {
            apps::BreadthFirstSearch bfs(g, roots[s]);
            bfs.seed(session.frontier());
            session.run(bfs, 1u << 20);
            actual[s].assign(bfs.parents().begin(), bfs.parents().end());
          });
    });
  }
  for (std::thread& t : threads) t.join();

  for (unsigned s = 0; s < kSessions; ++s) {
    EXPECT_EQ(actual[s], expected[s]) << "root " << roots[s];
  }
}

// Same guarantee for label-propagation CC (min-combine, full initial
// frontier) with a PageRank session racing alongside: heterogeneous
// programs over one context.
TEST_P(SessionSweep, MixedProgramSessionsShareOneContext) {
  const SessionConfig& c = GetParam();
  const Graph g = Graph::build(rmat_graph());
  const GraphContext ctx(&g, "shared");

  // Expected results from one-shot engines.
  std::vector<std::uint64_t> cc_expected;
  with_engine<apps::ConnectedComponents>(
      g, session_options(c, 2), c.vectorized, [&](auto& engine) {
        apps::ConnectedComponents cc(g);
        engine.frontier().set_all();
        engine.run(cc, 1u << 20);
        cc_expected.assign(cc.labels().begin(), cc.labels().end());
      });
  std::vector<double> pr_expected;
  with_engine<apps::PageRank>(
      g, session_options(c, 1), c.vectorized, [&](auto& engine) {
        apps::PageRank pr(g, engine.pool().size());
        engine.run(pr, 8);
        pr_expected.assign(pr.ranks().begin(), pr.ranks().end());
      });

  std::vector<std::uint64_t> cc_actual;
  std::vector<double> pr_actual;
  std::thread cc_thread([&]() {
    with_session<apps::ConnectedComponents>(
        ctx, session_options(c, 2), c.vectorized, [&](auto& session) {
          apps::ConnectedComponents cc(g);
          session.frontier().set_all();
          session.run(cc, 1u << 20);
          cc_actual.assign(cc.labels().begin(), cc.labels().end());
        });
  });
  std::thread pr_thread([&]() {
    // Single-threaded PR: the add-combine is grouping-sensitive, so
    // bit-identity needs a deterministic schedule.
    with_session<apps::PageRank>(
        ctx, session_options(c, 1), c.vectorized, [&](auto& session) {
          apps::PageRank pr(g, session.pool().size());
          session.run(pr, 8);
          pr_actual.assign(pr.ranks().begin(), pr.ranks().end());
        });
  });
  cc_thread.join();
  pr_thread.join();

  EXPECT_EQ(cc_actual, cc_expected);
  ASSERT_EQ(pr_actual.size(), pr_expected.size());
  EXPECT_EQ(std::memcmp(pr_actual.data(), pr_expected.data(),
                        pr_actual.size() * sizeof(double)),
            0);
}

// The serving workhorse: a fused k-source sweep's per-source parents
// are bit-identical to k sequential single-source runs, on every
// engine configuration.
TEST_P(SessionSweep, MultiSourceBfsMatchesSequentialRuns) {
  const SessionConfig& c = GetParam();
  const Graph g = Graph::build(rmat_graph());
  const GraphContext ctx(&g, "shared");

  const std::vector<VertexId> sources = {0, 3, 9, 27, 81, 243, 500, 511};
  const EngineOptions opts = session_options(c, 2);

  std::vector<std::vector<std::uint64_t>> expected;
  for (const VertexId s : sources) {
    with_engine<apps::BreadthFirstSearch>(
        g, opts, c.vectorized, [&](auto& engine) {
          apps::BreadthFirstSearch bfs(g, s);
          bfs.seed(engine.frontier());
          engine.run(bfs, 1u << 20);
          expected.emplace_back(bfs.parents().begin(), bfs.parents().end());
        });
  }

  with_session<apps::MultiSourceBfs>(
      ctx, opts, c.vectorized, [&](auto& session) {
        apps::MultiSourceBfs msbfs(
            g, sources, static_cast<unsigned>(session.pool().size()));
        msbfs.seed(session.frontier());
        session.run(msbfs, 1u << 20);
        for (std::size_t b = 0; b < sources.size(); ++b) {
          const auto parents = msbfs.parents(b);
          const std::vector<std::uint64_t> got(parents.begin(),
                                               parents.end());
          EXPECT_EQ(got, expected[b]) << "source " << sources[b];
        }
      });
}

INSTANTIATE_TEST_SUITE_P(AllModes, SessionSweep,
                         ::testing::ValuesIn(make_configs()), config_name);

// The batch's economic argument, measured: one 8-source fused sweep
// touches fewer edges than the 8 sequential runs combined (each level
// is one shared pass over the frontier's in-edges instead of 8).
TEST(MultiSourceBfs, BatchTouchesFewerEdgesThanSequentialRuns) {
  const Graph g = Graph::build(rmat_graph());
  const GraphContext ctx(&g, "shared");
  const std::vector<VertexId> sources = {0, 3, 9, 27, 81, 243, 500, 511};
  EngineOptions opts;
  opts.num_threads = 2;

  std::uint64_t sequential_edges = 0;
  for (const VertexId s : sources) {
    Session<apps::BreadthFirstSearch, false> session(ctx, opts);
    telemetry::Telemetry telem(session.pool().size());
    session.set_telemetry(&telem);
    apps::BreadthFirstSearch bfs(g, s);
    bfs.seed(session.frontier());
    session.run(bfs, 1u << 20);
    sequential_edges += telem.total(telemetry::Counter::kEdgesTouched);
  }

  Session<apps::MultiSourceBfs, false> session(ctx, opts);
  telemetry::Telemetry telem(session.pool().size());
  session.set_telemetry(&telem);
  apps::MultiSourceBfs msbfs(g, sources,
                             static_cast<unsigned>(session.pool().size()));
  msbfs.seed(session.frontier());
  session.run(msbfs, 1u << 20);
  const std::uint64_t batch_edges =
      telem.total(telemetry::Counter::kEdgesTouched) +
      msbfs.parent_scan_edges();

  EXPECT_LT(batch_edges, sequential_edges)
      << "fused sweep should amortize edge work across sources";
}

// Duplicate sources are legal: each bit still gets its own correct
// parent array.
TEST(MultiSourceBfs, DuplicateSourcesEachGetCorrectParents) {
  const Graph g = Graph::build(rmat_graph());
  const GraphContext ctx(&g, "shared");
  const std::vector<VertexId> sources = {5, 5, 17};
  EngineOptions opts;
  opts.num_threads = 2;

  std::vector<std::uint64_t> expected5, expected17;
  {
    Engine<apps::BreadthFirstSearch, false> engine(g, opts);
    apps::BreadthFirstSearch bfs(g, 5);
    bfs.seed(engine.frontier());
    engine.run(bfs, 1u << 20);
    expected5.assign(bfs.parents().begin(), bfs.parents().end());
  }
  {
    Engine<apps::BreadthFirstSearch, false> engine(g, opts);
    apps::BreadthFirstSearch bfs(g, 17);
    bfs.seed(engine.frontier());
    engine.run(bfs, 1u << 20);
    expected17.assign(bfs.parents().begin(), bfs.parents().end());
  }

  Session<apps::MultiSourceBfs, false> session(ctx, opts);
  apps::MultiSourceBfs msbfs(g, sources,
                             static_cast<unsigned>(session.pool().size()));
  msbfs.seed(session.frontier());
  session.run(msbfs, 1u << 20);
  for (const std::size_t b : {std::size_t{0}, std::size_t{1}}) {
    const auto parents = msbfs.parents(b);
    EXPECT_EQ(std::vector<std::uint64_t>(parents.begin(), parents.end()),
              expected5);
  }
  const auto parents17 = msbfs.parents(2);
  EXPECT_EQ(std::vector<std::uint64_t>(parents17.begin(), parents17.end()),
            expected17);
}

// A session serves many requests: reset() between runs must restore
// post-construction behavior exactly.
TEST(SessionReuse, ResetBetweenRunsReproducesFirstRun) {
  const Graph g = Graph::build(rmat_graph());
  const GraphContext ctx(&g, "shared");
  EngineOptions opts;
  opts.num_threads = 2;

  Session<apps::BreadthFirstSearch, false> session(ctx, opts);
  std::vector<std::uint64_t> first;
  {
    apps::BreadthFirstSearch bfs(g, 7);
    bfs.seed(session.frontier());
    session.run(bfs, 1u << 20);
    first.assign(bfs.parents().begin(), bfs.parents().end());
  }
  // A different root in between, then back to the first.
  session.reset();
  {
    apps::BreadthFirstSearch bfs(g, 200);
    bfs.seed(session.frontier());
    session.run(bfs, 1u << 20);
  }
  session.reset();
  {
    apps::BreadthFirstSearch bfs(g, 7);
    bfs.seed(session.frontier());
    session.run(bfs, 1u << 20);
    EXPECT_EQ(std::vector<std::uint64_t>(bfs.parents().begin(),
                                         bfs.parents().end()),
              first);
  }
}

// A server worker's pattern: one long-lived pool, successive sessions
// borrowing it (pool threads are created once, not per request).
TEST(SessionReuse, SharedPoolServesSequentialSessions) {
  const Graph g = Graph::build(rmat_graph());
  const GraphContext ctx(&g, "shared");
  EngineOptions opts;
  opts.num_threads = 2;

  ThreadPool pool(2);
  std::vector<std::uint64_t> expected;
  {
    Engine<apps::ConnectedComponents, false> engine(g, opts);
    apps::ConnectedComponents cc(g);
    engine.frontier().set_all();
    engine.run(cc, 1u << 20);
    expected.assign(cc.labels().begin(), cc.labels().end());
  }
  for (int round = 0; round < 3; ++round) {
    Session<apps::ConnectedComponents, false> session(ctx, opts, &pool);
    EXPECT_EQ(&session.pool(), &pool);
    apps::ConnectedComponents cc(g);
    session.frontier().set_all();
    session.run(cc, 1u << 20);
    EXPECT_EQ(std::vector<std::uint64_t>(cc.labels().begin(),
                                         cc.labels().end()),
              expected)
        << "round " << round;
  }
}

// The context's derived-state caches hand out one instance per key:
// sessions with the same blocking budget share a block index, and the
// NUMA partition cache is keyed by node count.
TEST(GraphContextCache, DerivedStateIsSharedPerKey) {
  const Graph g = Graph::build(rmat_graph());
  const GraphContext ctx(&g, "shared");
  EngineOptions opts;
  opts.num_threads = 2;
  opts.blocking.enabled = true;
  opts.blocking.block_bytes = 512;

  Session<apps::ConnectedComponents, false> a(ctx, opts);
  Session<apps::ConnectedComponents, false> b(ctx, opts);
  ASSERT_TRUE(a.blocking_active());
  EXPECT_EQ(a.block_index(), b.block_index());
  EXPECT_EQ(&a.numa_pieces(), &b.numa_pieces());

  // Coarser blocks (256 sources vs 64 — well above the 64-source
  // minimum the shift clamps to): a different cache key, a different
  // index.
  opts.blocking.block_bytes = 2048;
  Session<apps::ConnectedComponents, false> d(ctx, opts);
  if (d.blocking_active()) EXPECT_NE(d.block_index(), a.block_index());
}

// ---------------------------------------------------------------------------
// Epoch pinning (DESIGN.md §14): sessions keep the epoch they started
// with across concurrent publishes.

TEST(EpochPinning, SessionKeepsItsEpochAcrossPublish) {
  const Graph g = Graph::build(rmat_graph());
  GraphContext ctx(&g, "mutable");
  EngineOptions opts;
  opts.num_threads = 2;

  Session<apps::ConnectedComponents, false> pinned(ctx, opts);
  EXPECT_EQ(pinned.epoch().number(), 0u);
  EXPECT_EQ(&pinned.graph(), &g);
  const std::uint64_t old_edges = pinned.graph().num_edges();

  // Publish a delta the base graph cannot already contain: vertex 0 is
  // wired to every other vertex.
  std::vector<store::DeltaOp> ops;
  for (VertexId v = 1; v < 32; ++v) {
    ops.push_back(store::DeltaOp::insert(0, v));
  }
  ctx.ingest(ops);
  const DeltaReport report = ctx.publish();
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(ctx.epoch(), 1u);

  // The pinned session still serves epoch 0 — same graph object, same
  // edge count — while a fresh session binds the new epoch.
  EXPECT_EQ(pinned.epoch().number(), 0u);
  EXPECT_EQ(pinned.graph().num_edges(), old_edges);
  Session<apps::ConnectedComponents, false> fresh(ctx, opts);
  EXPECT_EQ(fresh.epoch().number(), 1u);
  EXPECT_EQ(fresh.graph().num_edges(),
            old_edges + report.inserted);
}

// A session mid-run when a publish lands must finish with answers from
// its pinned epoch, bit-identical to a run with no mutator racing (the
// TSan CI job runs this with real interleaving).
TEST(EpochPinning, ConcurrentPublishDoesNotPerturbRunningSession) {
  const Graph g = Graph::build(rmat_graph());
  GraphContext ctx(&g, "mutable");
  EngineOptions opts;
  opts.num_threads = 2;

  std::vector<std::uint64_t> expected;
  {
    Engine<apps::ConnectedComponents, false> engine(g, opts);
    apps::ConnectedComponents cc(g);
    engine.frontier().set_all();
    engine.run(cc, 1u << 20);
    expected.assign(cc.labels().begin(), cc.labels().end());
  }

  std::vector<std::uint64_t> actual;
  std::uint64_t pinned_epoch = ~std::uint64_t{0};
  std::thread reader([&]() {
    Session<apps::ConnectedComponents, false> session(ctx, opts);
    pinned_epoch = session.epoch().number();
    apps::ConnectedComponents cc(session.graph());
    session.frontier().set_all();
    session.run(cc, 1u << 20);
    actual.assign(cc.labels().begin(), cc.labels().end());
  });
  std::thread mutator([&]() {
    for (int batch = 0; batch < 4; ++batch) {
      std::vector<store::DeltaOp> ops;
      for (VertexId v = 1; v < 8; ++v) {
        ops.push_back(store::DeltaOp::insert(
            static_cast<VertexId>(batch * 8), v + 100));
      }
      ctx.ingest(ops);
      (void)ctx.publish();
    }
  });
  reader.join();
  mutator.join();

  EXPECT_EQ(ctx.epoch(), 4u);
  ASSERT_EQ(actual.size(), expected.size());
  if (pinned_epoch == 0) {
    // Epoch 0 pinned: the racing publishes must not have perturbed the
    // run — labels are exactly the unperturbed fixpoint.
    EXPECT_EQ(actual, expected);
  }
}

// Engine is now a GraphContext + Session wrapper; its context
// accessor must expose the same graph it was built on.
TEST(EngineWrapper, ExposesItsOwnContext) {
  const Graph g = Graph::build(rmat_graph());
  EngineOptions opts;
  opts.num_threads = 2;
  Engine<apps::ConnectedComponents, false> engine(g, opts);
  EXPECT_EQ(&engine.context().graph(), &g);
}

}  // namespace
}  // namespace grazelle
