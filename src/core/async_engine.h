// Asynchronous execution engine.
//
// The paper (§2) restricts Grazelle to synchronous engines, citing
// simplicity and "no clear winner" between the two styles [19, 66];
// this module supplies the other side of that comparison so the claim
// can be examined on this codebase (bench_async). It implements the
// classic worklist-driven asynchronous pattern for *monotone*
// minimization programs (Connected Components, SSSP):
//
//  * vertex properties are updated in place with atomic min-combines —
//    a thread immediately observes its neighbors' freshest values, with
//    no phase barrier and no separate accumulator array;
//  * a deduplicated worklist of active vertices drives execution:
//    relaxing a vertex pushes every out-neighbor whose property it
//    lowered;
//  * the worklist is drained in batches (atomic cursor over the active
//    array, per-thread append buffers for newly-activated vertices),
//    but value propagation is fully asynchronous — an activation in
//    the current batch can be relaxed with values produced moments ago.
//
// Only minimization programs whose message array *is* the property
// array qualify (monotone convergence guarantees termination);
// enforced at compile time via AsyncProgram.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/program.h"
#include "frontier/dense_frontier.h"
#include "graph/graph.h"
#include "platform/timer.h"
#include "telemetry/telemetry.h"
#include "threading/atomics.h"
#include "threading/thread_pool.h"

namespace grazelle {

/// Requirements for asynchronous execution: a GraphProgram with
/// minimization combine, message == property (not source ids), and
/// mutable access to the property array.
template <typename P>
concept AsyncProgram = GraphProgram<P> &&
                       (P::kCombine == simd::CombineOp::kMin) &&
                       (!P::kMessageIsSourceId) && requires(P prog) {
                         {
                           prog.property_array()
                         } -> std::same_as<typename P::Value*>;
                       };

struct AsyncRunStats {
  std::uint64_t batches = 0;
  std::uint64_t relaxations = 0;  // vertices popped from the worklist
  std::uint64_t edge_visits = 0;
  double total_seconds = 0.0;
};

template <AsyncProgram P>
class AsyncEngine {
 public:
  using V = typename P::Value;

  AsyncEngine(const Graph& graph, unsigned num_threads)
      : graph_(graph),
        pool_(num_threads),
        queued_(graph.num_vertices()),
        local_(pool_.size()) {}

  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }

  /// Attaches (or with nullptr detaches) a telemetry sink: one span per
  /// batch plus kAsyncRelaxations / kAsyncEdgeVisits, folded from the
  /// per-thread tallies the engine already keeps (no hot-path cost).
  void set_telemetry(telemetry::Telemetry* t) noexcept {
    telemetry_ = t;
    pool_.set_telemetry(t);
  }

  /// Runs to convergence from the given seed vertices. The program's
  /// property array must already reflect the seeds (e.g. dist[src]=0).
  AsyncRunStats run(P& prog, std::span<const VertexId> seeds) {
    AsyncRunStats stats;
    WallTimer timer;

    std::vector<VertexId> active(seeds.begin(), seeds.end());
    queued_.clear_all();
    for (VertexId v : active) queued_.set(v);

    const CompressedSparse& csr = graph_.csr();
    V* property = prog.property_array();

    while (!active.empty()) {
      ++stats.batches;
      std::atomic<std::uint64_t> cursor{0};
      std::atomic<std::uint64_t> relaxations{0};
      std::atomic<std::uint64_t> edge_visits{0};

      telemetry::ScopedSpan batch_span(telemetry_, 0, "async_batch",
                                       "active", active.size());
      pool_.run([&](unsigned tid) {
        std::vector<VertexId>& next = local_[tid];
        next.clear();
        std::uint64_t my_relax = 0;
        std::uint64_t my_edges = 0;
        for (;;) {
          const std::uint64_t i =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= active.size()) break;
          const VertexId u = active[i];
          // Atomic clear: other workers test_and_set the same word.
          // It must precede the property load so an improvement whose
          // enqueue saw the bit still set is read here instead.
          queued_.reset_atomic(u);
          ++my_relax;

          // Freshest value — another thread may lower it concurrently;
          // monotonicity keeps every observed value safe to propagate.
          const V u_value = atomic_load(&property[u]);
          const auto neighbors = csr.neighbors_of(u);
          const auto weights = csr.weights_of(u);
          my_edges += neighbors.size();
          for (std::size_t e = 0; e < neighbors.size(); ++e) {
            const VertexId v = neighbors[e];
            V msg = u_value;
            if constexpr (P::kWeight != simd::WeightOp::kNone) {
              msg = apply_weight_scalar<P::kWeight>(msg, weights[e]);
            }
            const bool lowered = atomic_combine(
                &property[v], msg,
                [](V a, V b) { return combine_scalar<P::kCombine>(a, b); });
            if (lowered && try_enqueue(v)) next.push_back(v);
          }
        }
        relaxations.fetch_add(my_relax, std::memory_order_relaxed);
        edge_visits.fetch_add(my_edges, std::memory_order_relaxed);
      });

      stats.relaxations += relaxations.load();
      stats.edge_visits += edge_visits.load();
      telemetry::count(telemetry_, 0, telemetry::Counter::kAsyncRelaxations,
                       relaxations.load());
      telemetry::count(telemetry_, 0, telemetry::Counter::kAsyncEdgeVisits,
                       edge_visits.load());

      active.clear();
      for (auto& buf : local_) {
        active.insert(active.end(), buf.begin(), buf.end());
        buf.clear();
      }
    }
    stats.total_seconds = timer.seconds();
    return stats;
  }

 private:
  /// Atomic test-and-set on the queued bitmask; true when this call
  /// transitioned the bit from 0 to 1 (the caller owns the enqueue).
  bool try_enqueue(VertexId v) { return queued_.test_and_set_atomic(v); }

  const Graph& graph_;
  ThreadPool pool_;
  DenseFrontier queued_;
  std::vector<std::vector<VertexId>> local_;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace grazelle
