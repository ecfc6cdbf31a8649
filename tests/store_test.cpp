// Packed container (.gzg) coverage: byte-identical round trips through
// pack/open/read, bit-identical app results between an in-memory-built
// graph and its packed twin across every pull mode with gating on and
// off, and one test per container failure mode asserting the typed
// StoreErrc each throws.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/bfs.h"
#include "apps/connected_components.h"
#include "apps/pagerank.h"
#include "core/engine.h"
#include "gen/rmat.h"
#include "graph/store.h"
#include "platform/mapped_file.h"

namespace grazelle {
namespace {

namespace fs = std::filesystem;

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

EdgeList weighted_graph() {
  EdgeList list(64);
  for (VertexId v = 0; v + 1 < 64; ++v) {
    list.add_edge(v, v + 1, 0.5 + 0.25 * static_cast<double>(v % 4));
    list.add_edge(v, (v * 7 + 3) % 64, 1.0 + static_cast<double>(v));
  }
  list.canonicalize();
  return list;
}

/// A scratch .gzg path that cleans up after the test. The name carries
/// the process id: `ctest -j` runs each test case as its own process,
/// and cases sharing a stem (the StoreFailure fixture) must not
/// truncate a file another process has mapped.
class TempStore {
 public:
  explicit TempStore(const char* stem)
      : path_(fs::temp_directory_path() /
              (std::string(stem) + "_" + std::to_string(::getpid()) +
               ".gzg")) {}
  ~TempStore() {
    std::error_code ec;
    fs::remove(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

template <typename T>
void expect_bytes_equal(std::span<const T> a, std::span<const T> b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0) << what;
  }
}

void expect_sparse_equal(const VectorSparseGraph& a,
                         const VectorSparseGraph& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  expect_bytes_equal(a.vectors(), b.vectors(), "vectors");
  expect_bytes_equal(a.weights(), b.weights(), "weights");
  expect_bytes_equal(a.index(), b.index(), "index");
  expect_bytes_equal(a.vector_spans(), b.vector_spans(), "vector_spans");
  expect_bytes_equal(a.vertex_spans(), b.vertex_spans(), "vertex_spans");
  expect_bytes_equal(a.source_offsets(), b.source_offsets(),
                     "source_offsets");
  expect_bytes_equal(a.source_vectors(), b.source_vectors(),
                     "source_vectors");
}

void expect_vsd512_equal(const Vsd512Graph& a, const Vsd512Graph& b) {
  SCOPED_TRACE("vsd512");
  ASSERT_EQ(a.present(), b.present());
  if (!a.present()) return;
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.sigma(), b.sigma());
  EXPECT_EQ(a.hub_min_degree(), b.hub_min_degree());
  EXPECT_EQ(a.hub_split_count(), b.hub_split_count());
  expect_bytes_equal(a.vectors(), b.vectors(), "v512.vectors");
  expect_bytes_equal(a.weights(), b.weights(), "v512.weights");
  expect_bytes_equal(a.slices(), b.slices(), "v512.slices");
  expect_bytes_equal(a.slice_offsets(), b.slice_offsets(), "v512.sliceoffs");
  expect_bytes_equal(a.source_offsets(), b.source_offsets(), "v512.srcoffs");
  expect_bytes_equal(a.source_vectors(), b.source_vectors(), "v512.srcvecs");
}

void expect_graphs_equal(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.weighted(), b.weighted());
  expect_bytes_equal(a.csr().offsets(), b.csr().offsets(), "csr.offsets");
  expect_bytes_equal(a.csr().neighbors(), b.csr().neighbors(),
                     "csr.neighbors");
  expect_bytes_equal(a.csr().weights(), b.csr().weights(), "csr.weights");
  expect_bytes_equal(a.csc().offsets(), b.csc().offsets(), "csc.offsets");
  expect_bytes_equal(a.csc().neighbors(), b.csc().neighbors(),
                     "csc.neighbors");
  expect_bytes_equal(a.csc().weights(), b.csc().weights(), "csc.weights");
  expect_sparse_equal(a.vss(), b.vss(), "vss");
  expect_sparse_equal(a.vsd(), b.vsd(), "vsd");
  expect_vsd512_equal(a.vsd512(), b.vsd512());
  expect_bytes_equal(a.out_degrees(), b.out_degrees(), "deg.out");
  expect_bytes_equal(a.in_degrees(), b.in_degrees(), "deg.in");
}

/// Asserts that `fn` throws StoreError carrying exactly `expected`.
template <typename Fn>
void expect_store_error(store::StoreErrc expected, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected StoreError(" << store::to_string(expected) << ")";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.code(), expected)
        << "got " << store::to_string(e.code()) << ": " << e.what();
  }
}

/// Overwrites `count` bytes at `offset` in the file.
void patch_file(const fs::path& path, std::uint64_t offset, const void* bytes,
                std::size_t count) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(count));
  ASSERT_TRUE(f.good());
}

// ---------------------------------------------------------------------------
// Round trips

TEST(Store, PackOpenReadRoundTripIsByteIdentical) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_roundtrip");
  store::pack_graph(built, store.path());

  const Graph copied = store::read_graph(store.path());
  EXPECT_FALSE(copied.mapped());
  expect_graphs_equal(built, copied);

  if (MappedFile::supported()) {
    const Graph opened = store::open_graph(store.path());
    EXPECT_TRUE(opened.mapped());
    expect_graphs_equal(built, opened);
  }
}

TEST(Store, WeightedRoundTripKeepsWeightSections) {
  const Graph built = Graph::build(weighted_graph());
  ASSERT_TRUE(built.weighted());
  TempStore store("grazelle_store_weighted");
  store::pack_graph(built, store.path());

  const store::StoreInfo info = store::inspect_store(store.path());
  EXPECT_TRUE(info.weighted);

  const Graph loaded = store::load_graph(store.path());
  EXPECT_TRUE(loaded.weighted());
  expect_graphs_equal(built, loaded);
}

TEST(Store, EmptyAndTinyGraphsRoundTrip) {
  for (std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{3}}) {
    EdgeList list(n);
    if (n == 3) list.add_edge(0, 2);
    const Graph built = Graph::build(std::move(list));
    TempStore store("grazelle_store_tiny");
    store::pack_graph(built, store.path());
    store::verify_store(store.path());
    const Graph loaded = store::load_graph(store.path());
    expect_graphs_equal(built, loaded);
  }
}

TEST(Store, InspectReportsHeaderAndAlignedSections) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_inspect");
  store::pack_graph(built, store.path());

  const store::StoreInfo info = store::inspect_store(store.path());
  EXPECT_EQ(info.version, store::kFormatVersion);
  EXPECT_FALSE(info.weighted);
  EXPECT_EQ(info.vector_lanes, kEdgeVectorLanes);
  EXPECT_EQ(info.num_vertices, built.num_vertices());
  EXPECT_EQ(info.num_edges, built.num_edges());
  EXPECT_FALSE(info.sections.empty());
  const std::uint64_t file_size = fs::file_size(store.path());
  for (const store::SectionInfo& s : info.sections) {
    EXPECT_EQ(s.offset % s.alignment, 0u) << s.name;
    EXPECT_LE(s.offset + s.length, file_size) << s.name;
  }
  EXPECT_NO_THROW(store::verify_store(store.path()));
}

// ---------------------------------------------------------------------------
// Bit-identical app results: built-in-memory vs opened-from-container,
// every pull mode, gating on and off (acceptance criterion).

std::vector<std::uint64_t> pagerank_bits(const Graph& g,
                                         const EngineOptions& o) {
  Engine<apps::PageRank, false> engine(g, o);
  apps::PageRank pr(g, engine.pool().size());
  engine.run(pr, 10);
  pr.finalize();
  std::vector<std::uint64_t> bits(pr.ranks().size());
  std::memcpy(bits.data(), pr.ranks().data(),
              pr.ranks().size_bytes());
  return bits;
}

std::vector<std::uint64_t> cc_labels(const Graph& g, const EngineOptions& o) {
  Engine<apps::ConnectedComponents, false> engine(g, o);
  apps::ConnectedComponents cc(g);
  engine.frontier().set_all();
  engine.run(cc, 1000);
  return {cc.labels().begin(), cc.labels().end()};
}

std::vector<std::uint64_t> bfs_parents(const Graph& g,
                                       const EngineOptions& o) {
  Engine<apps::BreadthFirstSearch, false> engine(g, o);
  apps::BreadthFirstSearch bfs(g, 0);
  bfs.seed(engine.frontier());
  engine.run(bfs, 1u << 20);
  return {bfs.parents().begin(), bfs.parents().end()};
}

TEST(Store, AppResultsBitIdenticalAcrossLoadPaths) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_apps");
  store::pack_graph(built, store.path());
  const Graph served = store::load_graph(store.path());

  const PullParallelism modes[] = {
      PullParallelism::kSequential, PullParallelism::kVertexParallel,
      PullParallelism::kTraditional, PullParallelism::kTraditionalNoAtomic,
      PullParallelism::kSchedulerAware};
  for (PullParallelism mode : modes) {
    for (bool gated : {false, true}) {
      EngineOptions o;
      o.pull_mode = mode;
      // Non-atomic traditional is only race-free single-threaded.
      o.num_threads = (mode == PullParallelism::kSequential ||
                       mode == PullParallelism::kTraditionalNoAtomic)
                          ? 1
                          : 4;
      o.gating.enabled = gated;
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                   (gated ? " gated" : " ungated"));
      // PageRank's add is grouping-sensitive: Traditional's per-vector
      // atomic adds are bit-stable only on one worker (DESIGN.md §5).
      EngineOptions pr_opts = o;
      if (mode == PullParallelism::kTraditional) pr_opts.num_threads = 1;
      EXPECT_EQ(pagerank_bits(built, pr_opts),
                pagerank_bits(served, pr_opts));
      EXPECT_EQ(cc_labels(built, o), cc_labels(served, o));
      EXPECT_EQ(bfs_parents(built, o), bfs_parents(served, o));
    }
  }
}

// ---------------------------------------------------------------------------
// Cache-block index sections (format v2)

TEST(Store, BlockIndexSectionsRoundTrip) {
  // Force a non-trivial build-time index (64-source blocks) so both
  // vsd.blkhdr and vsd.blksplit are exercised.
  ASSERT_EQ(setenv("GRAZELLE_BLOCK_BYTES", "512", 1), 0);
  const Graph built = Graph::build(rmat_graph());
  unsetenv("GRAZELLE_BLOCK_BYTES");
  ASSERT_TRUE(built.vsd_blocks().present());
  ASSERT_FALSE(built.vsd_blocks().trivial());

  TempStore store("grazelle_store_blocks");
  store::pack_graph(built, store.path());

  const store::StoreInfo info = store::inspect_store(store.path());
  EXPECT_EQ(info.version, store::kFormatVersion);
  bool has_hdr = false;
  bool has_split = false;
  for (const store::SectionInfo& s : info.sections) {
    has_hdr |= s.name == "vsd.blkhdr";
    has_split |= s.name == "vsd.blksplit";
  }
  EXPECT_TRUE(has_hdr);
  EXPECT_TRUE(has_split);

  const Graph served = store::load_graph(store.path());
  ASSERT_TRUE(served.vsd_blocks().present());
  EXPECT_EQ(served.vsd_blocks().source_shift(),
            built.vsd_blocks().source_shift());
  EXPECT_EQ(served.vsd_blocks().num_blocks(),
            built.vsd_blocks().num_blocks());
  expect_bytes_equal(built.vsd_blocks().splits(),
                     served.vsd_blocks().splits(), "vsd.blksplit");

  // An engine whose requested block size resolves to the persisted
  // shift serves the mapped index zero-copy instead of rebuilding.
  EngineOptions o;
  o.num_threads = 1;
  o.blocking.enabled = true;
  o.blocking.block_bytes = 512;
  Engine<apps::PageRank, false> engine(served, o);
  ASSERT_TRUE(engine.blocking_active());
  EXPECT_EQ(engine.block_index(), &served.vsd_blocks());
}

TEST(Store, TrivialIndexPersistsHeaderOnly) {
  // Under the default budget this 512-vertex graph is one block: the
  // header section still ships (recording the shift), the split table
  // does not.
  const Graph built = Graph::build(rmat_graph());
  ASSERT_TRUE(built.vsd_blocks().trivial());
  TempStore store("grazelle_store_trivial_blocks");
  store::pack_graph(built, store.path());

  bool has_hdr = false;
  bool has_split = false;
  for (const store::SectionInfo& s :
       store::inspect_store(store.path()).sections) {
    has_hdr |= s.name == "vsd.blkhdr";
    has_split |= s.name == "vsd.blksplit";
  }
  EXPECT_TRUE(has_hdr);
  EXPECT_FALSE(has_split);

  const Graph served = store::load_graph(store.path());
  EXPECT_TRUE(served.vsd_blocks().present());
  EXPECT_TRUE(served.vsd_blocks().trivial());
}

TEST(Store, LegacyContainerWithoutBlockSectionsStillOpens) {
  ASSERT_EQ(setenv("GRAZELLE_BLOCK_BYTES", "512", 1), 0);
  const Graph built = Graph::build(rmat_graph());
  unsetenv("GRAZELLE_BLOCK_BYTES");
  TempStore store("grazelle_store_legacy");
  store::pack_graph(built, store.path());

  // Rewrite the container as a v1 file: version 1 in the header and
  // the block sections renamed so lookups miss them (unknown sections
  // are ignored, and each CRC covers its payload only).
  const std::uint32_t v1 = 1;
  patch_file(store.path(), 4, &v1, sizeof(v1));
  const store::StoreInfo info = store::inspect_store(store.path());
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    const std::string& name = info.sections[i].name;
    if (name == "vsd.blkhdr" || name == "vsd.blksplit") {
      std::string renamed = name;
      renamed[0] = 'x';
      patch_file(store.path(), 64 + i * 40, renamed.c_str(), renamed.size());
    }
  }

  store::verify_store(store.path());  // still checksum-clean
  const Graph legacy = store::load_graph(store.path());
  EXPECT_FALSE(legacy.vsd_blocks().present());
  expect_graphs_equal(built, legacy);

  // The engine rebuilds an equivalent index on demand.
  EngineOptions o;
  o.num_threads = 1;
  o.blocking.enabled = true;
  o.blocking.block_bytes = 512;
  Engine<apps::PageRank, false> engine(legacy, o);
  ASSERT_TRUE(engine.blocking_active());
  EXPECT_NE(engine.block_index(), &legacy.vsd_blocks());
  EXPECT_EQ(engine.block_index()->num_blocks(),
            built.vsd_blocks().num_blocks());
  expect_bytes_equal(built.vsd_blocks().splits(),
                     engine.block_index()->splits(), "rebuilt splits");
}

// ---------------------------------------------------------------------------
// Fused 8-lane layout sections (format v3)

TEST(Store, Vsd512SectionsRoundTrip) {
  const Graph built = Graph::build(rmat_graph());
  ASSERT_TRUE(built.vsd512().present());
  TempStore store("grazelle_store_v512");
  store::pack_graph(built, store.path());

  const store::StoreInfo info = store::inspect_store(store.path());
  EXPECT_EQ(info.version, store::kFormatVersion);
  bool has_hdr = false;
  bool has_vectors = false;
  bool has_slices = false;
  for (const store::SectionInfo& s : info.sections) {
    has_hdr |= s.name == "v512.hdr";
    has_vectors |= s.name == "v512.vectors";
    has_slices |= s.name == "v512.slices";
  }
  EXPECT_TRUE(has_hdr);
  EXPECT_TRUE(has_vectors);
  EXPECT_TRUE(has_slices);

  const Graph served = store::load_graph(store.path());
  ASSERT_TRUE(served.vsd512().present());
  expect_vsd512_equal(built.vsd512(), served.vsd512());
}

TEST(Store, StrippedVsd512ContainerFallsBackTo4Lane) {
  // graph_convert --pack --lanes=4 ships a v3 container without the
  // v512.* sections; it must open cleanly with an absent Vsd512Graph.
  Graph built = Graph::build(rmat_graph());
  built.set_vsd512(Vsd512Graph{});
  TempStore store("grazelle_store_v512_stripped");
  store::pack_graph(built, store.path());

  for (const store::SectionInfo& s :
       store::inspect_store(store.path()).sections) {
    EXPECT_NE(s.name.substr(0, 5), "v512.") << s.name;
  }
  const Graph served = store::load_graph(store.path());
  EXPECT_FALSE(served.vsd512().present());
  expect_graphs_equal(built, served);
}

TEST(Store, VersionCappedReaderRejectsNewer) {
  // A long-lived reader pinned at v2 must refuse a v5 container with a
  // message naming both the found and the supported versions.
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_v512_capped");
  store::pack_graph(built, store.path());

  for (auto open : {+[](const fs::path& p, std::uint32_t cap) {
                      (void)store::open_graph(p, cap);
                    },
                    +[](const fs::path& p, std::uint32_t cap) {
                      (void)store::read_graph(p, cap);
                    },
                    +[](const fs::path& p, std::uint32_t cap) {
                      (void)store::load_graph(p, cap);
                    },
                    +[](const fs::path& p, std::uint32_t cap) {
                      (void)store::inspect_store(p, cap);
                    }}) {
    try {
      open(store.path(), 2);
      FAIL() << "expected StoreError(kBadVersion)";
    } catch (const store::StoreError& e) {
      EXPECT_EQ(e.code(), store::StoreErrc::kBadVersion);
      const std::string msg = e.what();
      EXPECT_NE(msg.find("version " + std::to_string(store::kFormatVersion)),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("1..2"), std::string::npos) << msg;
    }
  }
  // At the current cap the same file opens fine.
  EXPECT_NO_THROW((void)store::load_graph(store.path(),
                                          store::kFormatVersion));
}

// ---------------------------------------------------------------------------
// Delta journal sections (format v4)

TEST(Store, FreshPackHasEmptyJournal) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_journal_empty");
  store::pack_graph(built, store.path());

  const store::StoreInfo info = store::inspect_store(store.path());
  EXPECT_EQ(info.version, store::kFormatVersion);
  EXPECT_TRUE(info.has_journal);
  EXPECT_EQ(info.journal_batches, 0u);
  EXPECT_EQ(info.journal_ops, 0u);
  EXPECT_EQ(info.journal_net_edge_delta, 0);

  const store::DeltaJournal journal = store::read_delta_journal(store.path());
  EXPECT_EQ(journal.journal_version, 1u);
  EXPECT_TRUE(journal.batches.empty());
  EXPECT_EQ(journal.total_ops, 0u);
  EXPECT_NO_THROW(store::verify_store(store.path()));
}

TEST(Store, JournalAppendReadBackRoundTrip) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_journal_rt");
  store::pack_graph(built, store.path());

  const std::vector<store::DeltaOp> batch1 = {store::DeltaOp::insert(1, 2),
                                              store::DeltaOp::remove(3, 4)};
  const std::vector<store::DeltaOp> batch2 = {
      store::DeltaOp::insert(5, 6, 2.5)};
  store::append_delta_batch(store.path(), batch1);
  store::append_delta_batch(store.path(), batch2);

  const store::DeltaJournal journal = store::read_delta_journal(store.path());
  ASSERT_EQ(journal.batches.size(), 2u);
  EXPECT_EQ(journal.total_ops, 3u);
  EXPECT_EQ(journal.net_edge_delta, 1);  // two inserts, one delete
  const auto expect_ops_equal = [](std::span<const store::DeltaOp> got,
                                   std::span<const store::DeltaOp> want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].src, want[i].src);
      EXPECT_EQ(got[i].dst, want[i].dst);
      EXPECT_EQ(got[i].weight, want[i].weight);
      EXPECT_EQ(got[i].kind, want[i].kind);
    }
  };
  expect_ops_equal(journal.batches[0], batch1);
  expect_ops_equal(journal.batches[1], batch2);

  const store::StoreInfo info = store::inspect_store(store.path());
  EXPECT_EQ(info.journal_batches, 2u);
  EXPECT_EQ(info.journal_ops, 3u);
  EXPECT_EQ(info.journal_net_edge_delta, 1);

  // The append updated every affected CRC, and the base payloads are
  // untouched: the container still verifies and loads bit-identically.
  EXPECT_NO_THROW(store::verify_store(store.path()));
  expect_graphs_equal(built, store::load_graph(store.path()));
}

TEST(Store, JournalAppendValidatesOpsAndVersion) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_journal_reject");
  store::pack_graph(built, store.path());

  // Vertex ids beyond the packed id space are refused up front.
  const std::vector<store::DeltaOp> out_of_range = {
      store::DeltaOp::insert(built.num_vertices(), 0)};
  expect_store_error(store::StoreErrc::kBadSection, [&] {
    store::append_delta_batch(store.path(), out_of_range);
  });

  // A pre-v4 container has no journal to append to.
  const std::uint32_t v3 = 3;
  patch_file(store.path(), 4, &v3, sizeof(v3));
  const std::vector<store::DeltaOp> fine = {store::DeltaOp::insert(1, 2)};
  expect_store_error(store::StoreErrc::kBadVersion, [&] {
    store::append_delta_batch(store.path(), fine);
  });
}

TEST(Store, LegacyContainerYieldsEmptyJournal) {
  // A v3-era file (no dlt.* sections) reads back as "no journal", not
  // an error: rename the journal sections away and drop the version.
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_journal_legacy");
  store::pack_graph(built, store.path());

  const std::uint32_t v3 = 3;
  patch_file(store.path(), 4, &v3, sizeof(v3));
  const store::StoreInfo info = store::inspect_store(store.path());
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    const std::string& name = info.sections[i].name;
    if (name == "dlt.hdr" || name == "dlt.ops") {
      std::string renamed = name;
      renamed[0] = 'x';
      patch_file(store.path(), 64 + i * 40, renamed.c_str(),
                 renamed.size());
    }
  }

  store::verify_store(store.path());  // still checksum-clean
  const store::DeltaJournal journal = store::read_delta_journal(store.path());
  EXPECT_EQ(journal.journal_version, 0u);
  EXPECT_TRUE(journal.batches.empty());
  EXPECT_FALSE(store::inspect_store(store.path()).has_journal);
  expect_graphs_equal(built, store::load_graph(store.path()));
}

TEST(Store, JournalCorruptionFailsChecksum) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_journal_corrupt");
  store::pack_graph(built, store.path());
  const std::vector<store::DeltaOp> batch = {store::DeltaOp::insert(1, 2)};
  store::append_delta_batch(store.path(), batch);

  const store::StoreInfo info = store::inspect_store(store.path());
  const store::SectionInfo* ops_section = nullptr;
  for (const store::SectionInfo& s : info.sections) {
    if (s.name == "dlt.ops") ops_section = &s;
  }
  ASSERT_NE(ops_section, nullptr);
  ASSERT_GT(ops_section->length, 0u);

  std::ifstream in(store.path(), std::ios::binary);
  in.seekg(static_cast<std::streamoff>(ops_section->offset));
  char byte = 0;
  in.read(&byte, 1);
  in.close();
  byte = static_cast<char>(byte ^ 0x5a);
  patch_file(store.path(), ops_section->offset, &byte, 1);

  expect_store_error(store::StoreErrc::kChecksumMismatch,
                     [&] { store::verify_store(store.path()); });
  expect_store_error(store::StoreErrc::kChecksumMismatch, [&] {
    (void)store::read_delta_journal(store.path());
  });
}

// ---------------------------------------------------------------------------
// Tuning sidecar sections (format v5)

store::TuningRecord make_tuning_record(const char* algo,
                                       std::uint64_t fingerprint) {
  store::TuningRecord r;
  r.algorithm = algo;
  r.fingerprint = fingerprint;
  r.gating_divisor = 64;
  r.block_shift = 14;
  r.prefetch_distance = 8;
  r.pull_cycles_per_edge = 2.75;
  r.gated_pull_cycles_per_edge = 5.5;
  r.push_cycles_per_edge = 11.25;
  r.llc_misses_per_edge = 0.375;
  r.samples = 42;
  return r;
}

TEST(Store, FreshPackHasEmptyTuningSidecar) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_tuning_empty");
  store::pack_graph(built, store.path());

  const store::StoreInfo info = store::inspect_store(store.path());
  EXPECT_EQ(info.version, store::kFormatVersion);
  EXPECT_TRUE(info.has_tuning);
  EXPECT_EQ(info.tuning_records, 0u);
  EXPECT_EQ(info.tuning_capacity, store::kTuningSlotCapacity);

  const store::TuningProfile profile = store::read_tuning(store.path());
  EXPECT_EQ(profile.tuning_version, 1u);
  EXPECT_EQ(profile.capacity, store::kTuningSlotCapacity);
  EXPECT_TRUE(profile.records.empty());
  EXPECT_NO_THROW(store::verify_store(store.path()));
}

TEST(Store, TuningSidecarWriteReadRoundTrip) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_tuning_rt");
  store::pack_graph(built, store.path());

  const std::uint64_t fp = store::machine_tuning_fingerprint();
  store::write_tuning(store.path(), make_tuning_record("pr", fp));
  store::write_tuning(store.path(), make_tuning_record("bfs", fp));

  const store::TuningProfile profile = store::read_tuning(store.path());
  ASSERT_EQ(profile.records.size(), 2u);
  const store::TuningRecord* rec = store::find_tuning(profile, "pr", fp);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->fingerprint, fp);
  EXPECT_EQ(rec->gating_divisor, 64u);
  EXPECT_EQ(rec->block_shift, 14u);
  EXPECT_EQ(rec->prefetch_distance, 8);
  EXPECT_EQ(rec->pull_cycles_per_edge, 2.75);
  EXPECT_EQ(rec->gated_pull_cycles_per_edge, 5.5);
  EXPECT_EQ(rec->push_cycles_per_edge, 11.25);
  EXPECT_EQ(rec->llc_misses_per_edge, 0.375);
  EXPECT_EQ(rec->samples, 42u);
  EXPECT_EQ(store::find_tuning(profile, "cc", fp), nullptr);

  // Upsert: the same (algorithm, fingerprint) replaces in place.
  store::TuningRecord updated = make_tuning_record("pr", fp);
  updated.gating_divisor = 128;
  updated.samples = 100;
  store::write_tuning(store.path(), updated);
  const store::TuningProfile again = store::read_tuning(store.path());
  EXPECT_EQ(again.records.size(), 2u);
  const store::TuningRecord* rec2 = store::find_tuning(again, "pr", fp);
  ASSERT_NE(rec2, nullptr);
  EXPECT_EQ(rec2->gating_divisor, 128u);
  EXPECT_EQ(rec2->samples, 100u);

  // The in-place patch kept every CRC consistent and the base payloads
  // untouched.
  EXPECT_EQ(store::inspect_store(store.path()).tuning_records, 2u);
  EXPECT_NO_THROW(store::verify_store(store.path()));
  expect_graphs_equal(built, store::load_graph(store.path()));
}

TEST(Store, TuningSidecarEvictsFewestSamplesWhenFull) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_tuning_evict");
  store::pack_graph(built, store.path());

  // Fill every slot with distinct fingerprints; samples grow with the
  // slot index so fingerprint 0 is the least-trusted record.
  for (std::uint64_t i = 0; i < store::kTuningSlotCapacity; ++i) {
    store::TuningRecord r = make_tuning_record("pr", i);
    r.samples = 10 + i;
    store::write_tuning(store.path(), r);
  }
  ASSERT_EQ(store::read_tuning(store.path()).records.size(),
            store::kTuningSlotCapacity);

  store::TuningRecord extra = make_tuning_record("cc", 999);
  extra.samples = 1000;
  store::write_tuning(store.path(), extra);
  const store::TuningProfile profile = store::read_tuning(store.path());
  EXPECT_EQ(profile.records.size(), store::kTuningSlotCapacity);
  EXPECT_NE(store::find_tuning(profile, "cc", 999), nullptr);
  EXPECT_EQ(store::find_tuning(profile, "pr", 0), nullptr);  // evicted
  EXPECT_NE(store::find_tuning(profile, "pr", 1), nullptr);
}

TEST(Store, TuningSidecarRejectsBadAlgorithmKey) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_tuning_badkey");
  store::pack_graph(built, store.path());
  expect_store_error(store::StoreErrc::kBadSection, [&] {
    store::write_tuning(store.path(), make_tuning_record("", 1));
  });
  expect_store_error(store::StoreErrc::kBadSection, [&] {
    store::write_tuning(store.path(),
                        make_tuning_record("toolongname", 1));
  });
}

TEST(Store, StrippedTuningSectionsReadAsEmptyProfile) {
  // A v5 container whose tun.* sections were stripped (or a foreign
  // packer that never wrote them) must read as "no sidecar", not an
  // error; writes, which need the slots, fail with a typed error.
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_tuning_stripped");
  store::pack_graph(built, store.path());

  const store::StoreInfo info = store::inspect_store(store.path());
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    const std::string& name = info.sections[i].name;
    if (name == "tun.hdr" || name == "tun.cfg") {
      std::string renamed = name;
      renamed[0] = 'x';
      patch_file(store.path(), 64 + i * 40, renamed.c_str(),
                 renamed.size());
    }
  }

  store::verify_store(store.path());  // still checksum-clean
  EXPECT_FALSE(store::inspect_store(store.path()).has_tuning);
  EXPECT_TRUE(store::read_tuning(store.path()).records.empty());
  expect_graphs_equal(built, store::load_graph(store.path()));
  expect_store_error(store::StoreErrc::kBadSection, [&] {
    store::write_tuning(store.path(), make_tuning_record("pr", 1));
  });
}

TEST(Store, CorruptTuningSidecarIsIgnoredNotFatal) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_tuning_corrupt");
  store::pack_graph(built, store.path());
  store::write_tuning(store.path(),
                      make_tuning_record(
                          "pr", store::machine_tuning_fingerprint()));

  const store::StoreInfo info = store::inspect_store(store.path());
  const store::SectionInfo* cfg = nullptr;
  for (const store::SectionInfo& s : info.sections) {
    if (s.name == "tun.cfg") cfg = &s;
  }
  ASSERT_NE(cfg, nullptr);
  std::ifstream in(store.path(), std::ios::binary);
  in.seekg(static_cast<std::streamoff>(cfg->offset));
  char byte = 0;
  in.read(&byte, 1);
  in.close();
  byte = static_cast<char>(byte ^ 0x5a);
  patch_file(store.path(), cfg->offset, &byte, 1);

  // Tuning is advisory: the damaged sidecar reads as empty and the
  // graph still serves; only the strict whole-file verify objects.
  EXPECT_TRUE(store::read_tuning(store.path()).records.empty());
  expect_graphs_equal(built, store::load_graph(store.path()));
  expect_store_error(store::StoreErrc::kChecksumMismatch,
                     [&] { store::verify_store(store.path()); });
}

TEST(Store, PreV5ContainerHasNoTuningSidecar) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_tuning_prev5");
  store::pack_graph(built, store.path());

  const std::uint32_t v4 = 4;
  patch_file(store.path(), 4, &v4, sizeof(v4));
  const store::StoreInfo info = store::inspect_store(store.path());
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    const std::string& name = info.sections[i].name;
    if (name == "tun.hdr" || name == "tun.cfg") {
      std::string renamed = name;
      renamed[0] = 'x';
      patch_file(store.path(), 64 + i * 40, renamed.c_str(),
                 renamed.size());
    }
  }

  store::verify_store(store.path());
  EXPECT_FALSE(store::inspect_store(store.path()).has_tuning);
  EXPECT_TRUE(store::read_tuning(store.path()).records.empty());
  expect_store_error(store::StoreErrc::kBadVersion, [&] {
    store::write_tuning(store.path(), make_tuning_record("pr", 1));
  });
  // v4-and-older containers open exactly as before.
  expect_graphs_equal(built, store::load_graph(store.path()));
}

TEST(Store, GraphContextIgnoresForeignFingerprintTuning) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_tuning_foreign");
  store::pack_graph(built, store.path());

  const std::uint64_t fp = store::machine_tuning_fingerprint();
  store::write_tuning(store.path(), make_tuning_record("pr", fp + 1));
  {
    GraphContext ctx = GraphContext::open(store.path().string());
    EXPECT_FALSE(ctx.tuning_for("pr").present);  // wrong machine
    EXPECT_TRUE(ctx.tuning_persistable());
  }

  store::write_tuning(store.path(), make_tuning_record("pr", fp));
  GraphContext ctx = GraphContext::open(store.path().string());
  const TuningSeed seed = ctx.tuning_for("pr");
  ASSERT_TRUE(seed.present);
  EXPECT_EQ(seed.gating_divisor, 64u);
  EXPECT_EQ(seed.prefetch_distance, 8);
  EXPECT_EQ(seed.samples, 42u);
  EXPECT_FALSE(ctx.tuning_for("bfs").present);
}

TEST(Store, GraphContextPersistTuningWritesLearnedSeeds) {
  const Graph built = Graph::build(rmat_graph());
  TempStore store("grazelle_store_tuning_persist");
  store::pack_graph(built, store.path());

  {
    GraphContext ctx = GraphContext::open(store.path().string());
    TuningSeed seed;
    seed.present = true;
    seed.gating_divisor = 16;
    seed.block_shift = 12;
    seed.prefetch_distance = 4;
    seed.pull_cycles_per_edge = 1.5;
    seed.gated_pull_cycles_per_edge = 3.0;
    seed.push_cycles_per_edge = 7.0;
    seed.samples = 9;
    ctx.record_tuning("cc", seed);
    // A lower-sample seed for the same algorithm must not regress the
    // recorded one.
    TuningSeed weaker = seed;
    weaker.gating_divisor = 999;
    weaker.samples = 2;
    ctx.record_tuning("cc", weaker);
    EXPECT_EQ(ctx.persist_tuning(), 1u);
  }

  const store::TuningProfile profile = store::read_tuning(store.path());
  const store::TuningRecord* rec = store::find_tuning(
      profile, "cc", store::machine_tuning_fingerprint());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->gating_divisor, 16u);
  EXPECT_EQ(rec->block_shift, 12u);
  EXPECT_EQ(rec->prefetch_distance, 4);
  EXPECT_EQ(rec->samples, 9u);

  // A fresh context warm-starts from what the last one persisted.
  GraphContext reopened = GraphContext::open(store.path().string());
  const TuningSeed warm = reopened.tuning_for("cc");
  ASSERT_TRUE(warm.present);
  EXPECT_EQ(warm.gating_divisor, 16u);
  EXPECT_EQ(warm.pull_cycles_per_edge, 1.5);
}

// ---------------------------------------------------------------------------
// Failure modes: each malformed container throws the matching StoreErrc.
// File layout: [FileHeader 64 B][SectionEntry 40 B x N][payloads].
// FileHeader: magic[4] version u32 ... ; SectionEntry: name[16],
// offset u64 (at +16), length u64, alignment u32, crc32 u32.

class StoreFailure : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<TempStore>("grazelle_store_failure");
    store::pack_graph(Graph::build(rmat_graph()), path());
  }
  [[nodiscard]] const fs::path& path() const { return store_->path(); }

  std::unique_ptr<TempStore> store_;
};

TEST_F(StoreFailure, MissingFileIsIoError) {
  expect_store_error(store::StoreErrc::kIoError, [] {
    (void)store::open_graph("/nonexistent/grazelle.gzg");
  });
  expect_store_error(store::StoreErrc::kIoError, [] {
    (void)store::read_graph("/nonexistent/grazelle.gzg");
  });
}

TEST_F(StoreFailure, BadMagicIsDetected) {
  const char junk[4] = {'N', 'O', 'P', 'E'};
  patch_file(path(), 0, junk, sizeof(junk));
  expect_store_error(store::StoreErrc::kBadMagic,
                     [&] { (void)store::open_graph(path()); });
  expect_store_error(store::StoreErrc::kBadMagic,
                     [&] { (void)store::inspect_store(path()); });
}

TEST_F(StoreFailure, UnsupportedVersionIsDetected) {
  const std::uint32_t future = store::kFormatVersion + 7;
  patch_file(path(), 4, &future, sizeof(future));
  expect_store_error(store::StoreErrc::kBadVersion,
                     [&] { (void)store::open_graph(path()); });
}

TEST_F(StoreFailure, PayloadCorruptionFailsChecksum) {
  // Flip one byte in the last non-empty *graph* section's payload (the
  // dlt.* journal and tun.* tuning-sidecar sections are covered by
  // their own tests, and read_graph does not consume them).
  // Structural open still succeeds (it validates layout only); the
  // checksum passes catch it.
  const store::StoreInfo info = store::inspect_store(path());
  const store::SectionInfo* picked = nullptr;
  for (const store::SectionInfo& s : info.sections) {
    if (s.length > 0 && s.name.rfind("dlt.", 0) != 0 &&
        s.name.rfind("tun.", 0) != 0) {
      picked = &s;
    }
  }
  ASSERT_NE(picked, nullptr);
  const store::SectionInfo& last = *picked;
  ASSERT_GT(last.length, 0u);
  std::ifstream in(path(), std::ios::binary);
  in.seekg(static_cast<std::streamoff>(last.offset));
  char byte = 0;
  in.read(&byte, 1);
  in.close();
  byte = static_cast<char>(byte ^ 0x5a);
  patch_file(path(), last.offset, &byte, 1);

  EXPECT_NO_THROW((void)store::open_graph(path()));
  expect_store_error(store::StoreErrc::kChecksumMismatch,
                     [&] { store::verify_store(path()); });
  expect_store_error(store::StoreErrc::kChecksumMismatch,
                     [&] { (void)store::read_graph(path()); });
}

TEST_F(StoreFailure, TruncatedSectionTableIsDetected) {
  // Cut the file right after the header: the declared section table no
  // longer fits.
  fs::resize_file(path(), 64);
  expect_store_error(store::StoreErrc::kTruncated,
                     [&] { (void)store::open_graph(path()); });
}

TEST_F(StoreFailure, TruncatedPayloadIsDetected) {
  const std::uint64_t size = fs::file_size(path());
  fs::resize_file(path(), size - 128);
  expect_store_error(store::StoreErrc::kTruncated,
                     [&] { (void)store::open_graph(path()); });
}

TEST_F(StoreFailure, UnalignedSectionOffsetIsDetected) {
  // First SectionEntry starts at byte 64; its offset field is at +16.
  const std::uint64_t unaligned = 65;
  patch_file(path(), 64 + 16, &unaligned, sizeof(unaligned));
  expect_store_error(store::StoreErrc::kUnalignedSection,
                     [&] { (void)store::open_graph(path()); });
}

TEST_F(StoreFailure, LoadGraphDoesNotSwallowFormatErrors) {
  // load_graph falls back from mmap to copy-in only on I/O errors; a
  // malformed container must surface its typed error, not be retried.
  const char junk[4] = {'N', 'O', 'P', 'E'};
  patch_file(path(), 0, junk, sizeof(junk));
  expect_store_error(store::StoreErrc::kBadMagic,
                     [&] { (void)store::load_graph(path()); });
}

}  // namespace
}  // namespace grazelle
