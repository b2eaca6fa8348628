// Failpoint registry semantics (both builds) and the fault-injection
// battery (SIMSPATIAL_FAILPOINTS=ON builds): inject failures at every
// seeded point of the MemGrid mutation paths and the storage tier, then
// assert the survivor is EXACTLY the pre-failure or post-batch oracle —
// never a half-mutated hybrid. ctest label: "faults".

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/memgrid.h"
#include "datagen/neuron.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace simspatial {
namespace {

using core::CellLayout;
using core::MemGrid;
using core::MemGridConfig;
using datagen::GenerateUniformBoxes;

const AABB kUniverse(Vec3(0, 0, 0), Vec3(100, 100, 100));

// --- Registry semantics (compiled in every build) -----------------------

class FailpointRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::Registry::Global().DisarmAll(); }
  void TearDown() override { fail::Registry::Global().DisarmAll(); }
};

TEST_F(FailpointRegistryTest, UnarmedTripIsFalseAndFree) {
  auto& reg = fail::Registry::Global();
  EXPECT_FALSE(reg.AnyArmed());
  EXPECT_FALSE(reg.Trip("never.armed"));
  EXPECT_EQ(reg.Stats("never.armed").hits, 0u);
}

TEST_F(FailpointRegistryTest, SpecParsing) {
  auto& reg = fail::Registry::Global();
  EXPECT_TRUE(reg.ConfigureFromSpec("a.b.c"));
  EXPECT_TRUE(reg.ConfigureFromSpec("x.y:0.5:42,p.q:1:7:error"));
  auto names = reg.ArmedNames();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a.b.c", "p.q", "x.y"}));
  // Malformed entries arm nothing further but keep earlier arms.
  reg.DisarmAll();
  EXPECT_FALSE(reg.ConfigureFromSpec("good.one:1,bad:one:NaNspec:bogus"));
  names = reg.ArmedNames();
  EXPECT_EQ(names, std::vector<std::string>{"good.one"});
  EXPECT_FALSE(reg.ConfigureFromSpec(""));
}

TEST_F(FailpointRegistryTest, SeededTripSequencesAreDeterministic) {
  auto& reg = fail::Registry::Global();
  const auto pattern = [&](std::uint64_t seed) {
    fail::FailpointConfig cfg;
    cfg.probability = 0.5;
    cfg.seed = seed;
    cfg.action = fail::Action::kError;
    reg.Arm("det.point", cfg);
    std::vector<bool> p;
    for (int i = 0; i < 64; ++i) p.push_back(reg.Trip("det.point"));
    return p;
  };
  const auto a = pattern(99);
  const auto b = pattern(99);
  const auto c = pattern(100);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 2^-64 collision chance.
  // Something actually varies: a 0.5 point neither always nor never trips.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST_F(FailpointRegistryTest, SkipAndMaxTripsAndStats) {
  auto& reg = fail::Registry::Global();
  fail::FailpointConfig cfg;
  cfg.action = fail::Action::kError;
  cfg.skip = 3;
  cfg.max_trips = 2;
  reg.Arm("bounded.point", cfg);
  std::vector<bool> got;
  for (int i = 0; i < 8; ++i) got.push_back(reg.Trip("bounded.point"));
  EXPECT_EQ(got, (std::vector<bool>{false, false, false, true, true, false,
                                    false, false}));
  const auto stats = reg.Stats("bounded.point");
  EXPECT_EQ(stats.hits, 8u);
  EXPECT_EQ(stats.trips, 2u);
}

TEST_F(FailpointRegistryTest, ThrowActionCarriesSite) {
  auto& reg = fail::Registry::Global();
  reg.Arm("throwing.point", fail::FailpointConfig{});
  try {
    reg.Trip("throwing.point");
    FAIL() << "expected FaultInjected";
  } catch (const fail::FaultInjected& e) {
    EXPECT_EQ(e.site(), "throwing.point");
  }
  reg.Disarm("throwing.point");
  EXPECT_FALSE(reg.Trip("throwing.point"));
  EXPECT_FALSE(reg.AnyArmed());
}

TEST_F(FailpointRegistryTest, DelayActionContinues) {
  auto& reg = fail::Registry::Global();
  fail::FailpointConfig cfg;
  cfg.action = fail::Action::kDelay;
  cfg.delay_ns = 1000;
  reg.Arm("slow.point", cfg);
  EXPECT_FALSE(reg.Trip("slow.point"));  // Delays, does not report.
  EXPECT_EQ(reg.Stats("slow.point").trips, 1u);
}

// --- Injection battery (needs -DSIMSPATIAL_FAILPOINTS=ON) ---------------

bool SameElements(const std::vector<Element>& a,
                  const std::vector<Element>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    const AABB& x = a[i].box;
    const AABB& y = b[i].box;
    if (x.min.x != y.min.x || x.min.y != y.min.y || x.min.z != y.min.z ||
        x.max.x != y.max.x || x.max.y != y.max.y || x.max.z != y.max.z) {
      return false;
    }
  }
  return true;
}

// A displacement-heavy batch: most elements jiggle in place, a slice
// teleports across the universe so migrations, region growth and
// compaction churn all engage.
std::vector<ElementUpdate> MakeBatch(const std::vector<Element>& elems,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ElementUpdate> updates;
  updates.reserve(elems.size());
  for (const Element& e : elems) {
    AABB box = e.box;
    if (e.id % 7 == 0) {
      box = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                       rng.Uniform(0.1f, 0.3f));
    } else {
      box = box.Translated(Vec3(rng.Normal(0, 0.05f), rng.Normal(0, 0.05f),
                                rng.Normal(0, 0.05f)));
    }
    updates.emplace_back(e.id, box);
  }
  return updates;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kCompiledIn) {
      GTEST_SKIP() << "build with -DSIMSPATIAL_FAILPOINTS=ON";
    }
    fail::Registry::Global().DisarmAll();
  }
  void TearDown() override { fail::Registry::Global().DisarmAll(); }
};

TEST_F(FaultInjectionTest, BuildFailureLeavesPreviousIndexIntact) {
  const auto elems_a = GenerateUniformBoxes(1500, kUniverse, 0.1f, 0.4f, 21);
  const auto elems_b = GenerateUniformBoxes(1200, kUniverse, 0.1f, 0.4f, 22);
  for (const std::uint32_t threads : {0u, 2u}) {
    for (const char* site : {"memgrid.build.alloc", "memgrid.build.worker"}) {
      MemGridConfig cfg;
      cfg.cell_size = 5.0f;
      cfg.threads = threads;
      cfg.shards = 3;
      MemGrid g(kUniverse, cfg);
      g.Build(elems_a);
      const auto pre = g.SnapshotElements();

      fail::FailpointConfig fp;
      fp.seed = 7;
      fp.max_trips = 1;
      fail::Registry::Global().Arm(site, fp);
      bool threw = false;
      try {
        g.Build(elems_b);
      } catch (const fail::FaultInjected&) {
        threw = true;
      }
      const bool evaluated =
          fail::Registry::Global().Stats(site).trips > 0;
      fail::Registry::Global().DisarmAll();
      EXPECT_EQ(threw, evaluated) << site;

      std::string err;
      ASSERT_TRUE(g.CheckInvariants(&err))
          << site << " threads=" << threads << ": " << err;
      if (threw) {
        EXPECT_TRUE(SameElements(g.SnapshotElements(), pre))
            << site << " threads=" << threads;
        // The grid is not poisoned: the same Build succeeds once disarmed.
        g.Build(elems_b);
      }
      EXPECT_EQ(g.size(), elems_b.size());
      ASSERT_TRUE(g.CheckInvariants(&err)) << err;
    }
  }
}

// The tentpole battery: inject a failure at every seeded point of the
// ApplyUpdates machinery, across layouts x shards x threads, and assert
// the survivor equals the pre-batch or post-batch oracle exactly.
TEST_F(FaultInjectionTest, ApplyUpdatesRollsBackAtEveryInjectionPoint) {
  const auto elems = GenerateUniformBoxes(2048, kUniverse, 0.1f, 0.4f, 23);
  const auto updates = MakeBatch(elems, 31);
  const char* kSites[] = {
      "memgrid.apply.alloc",   "memgrid.apply.classify.worker",
      "memgrid.apply.stage",   "memgrid.apply.land",
      "memgrid.relayout.alloc", "memgrid.compact.begin",
      "memgrid.compact.advance",
  };
  for (const CellLayout layout :
       {CellLayout::kRowMajor, CellLayout::kMorton, CellLayout::kHilbert}) {
    for (const std::uint32_t shards : {1u, 5u}) {
      for (const std::uint32_t threads : {0u, 2u}) {
        MemGridConfig cfg;
        cfg.cell_size = 5.0f;
        cfg.layout = layout;
        cfg.shards = shards;
        cfg.threads = threads;
        cfg.compact_regions_per_batch = 8;
        MemGrid base(kUniverse, cfg);
        base.Build(elems);
        const auto pre = base.SnapshotElements();
        // Oracle BEFORE arming: failpoints are process-global.
        MemGrid oracle = base;
        ASSERT_EQ(oracle.ApplyUpdates(updates), updates.size());
        const auto post = oracle.SnapshotElements();

        for (const char* site : kSites) {
          for (const std::uint64_t skip : {0u, 2u, 7u}) {
            MemGrid victim = base;
            fail::FailpointConfig fp;
            fp.seed = 1000 + skip;
            fp.skip = skip;
            fp.max_trips = 1;  // Rollback must not re-trip the site.
            fail::Registry::Global().Arm(site, fp);
            bool threw = false;
            try {
              victim.ApplyUpdates(updates);
            } catch (const fail::FaultInjected&) {
              threw = true;
            }
            fail::Registry::Global().DisarmAll();

            const std::string ctx =
                std::string(site) + " skip=" + std::to_string(skip) +
                " layout=" + std::to_string(static_cast<int>(layout)) +
                " shards=" + std::to_string(shards) +
                " threads=" + std::to_string(threads);
            std::string err;
            ASSERT_TRUE(victim.CheckInvariants(&err)) << ctx << ": " << err;
            EXPECT_TRUE(SameElements(victim.SnapshotElements(),
                                     threw ? pre : post))
                << ctx << (threw ? " (rolled back)" : " (committed)");
            if (threw) {
              EXPECT_GE(victim.update_stats().rollbacks, 1u) << ctx;
              // Rolled-back grids stay usable: the batch applies cleanly
              // once the fault clears.
              ASSERT_EQ(victim.ApplyUpdates(updates), updates.size());
              EXPECT_TRUE(SameElements(victim.SnapshotElements(), post))
                  << ctx;
            }
          }
        }
        // Worker failures beyond the first per dispatch are counted, not
        // lost — Shape() republishes the process-wide pool counter.
        EXPECT_EQ(base.Shape().pool_suppressed_errors,
                  par::ThreadPool::Global().total_suppressed_errors());
      }
    }
  }
}

bool SameStats(const core::MemGridUpdateStats& a,
               const core::MemGridUpdateStats& b) {
  return a.updates == b.updates && a.in_place == b.in_place &&
         a.migrations == b.migrations && a.relayouts == b.relayouts &&
         a.rebuilds == b.rebuilds &&
         a.compaction_passes == b.compaction_passes &&
         a.compacted_regions == b.compacted_regions &&
         a.rollbacks == b.rollbacks &&
         a.compaction_aborts == b.compaction_aborts;
}

// A full-coverage batch on a large grid takes ApplyUpdates' rebuild path,
// whose only transaction is Build's stash: a failure anywhere in it must
// leave the pre-batch elements and counters (plus one rollback) and a
// grid that applies the batch cleanly once the fault clears.
TEST_F(FaultInjectionTest, RebuildPathFailureRestoresPreBatchGrid) {
  const auto elems = GenerateUniformBoxes(140000, kUniverse, 0.1f, 0.4f, 25);
  const auto updates = MakeBatch(elems, 41);
  for (const std::uint32_t shards : {1u, 5u}) {
    for (const std::uint32_t threads : {0u, 2u}) {
      MemGridConfig cfg;
      cfg.cell_size = 5.0f;
      cfg.shards = shards;
      cfg.threads = threads;
      MemGrid base(kUniverse, cfg);
      base.Build(elems);
      // One committed rebuild first, so the failing one constructs into
      // recycled storage.
      ASSERT_EQ(base.ApplyUpdates(MakeBatch(elems, 40)), elems.size());
      const auto pre = base.SnapshotElements();
      MemGrid oracle = base;
      ASSERT_EQ(oracle.ApplyUpdates(updates), updates.size());
      ASSERT_EQ(oracle.update_stats().rebuilds, 2u);
      const auto post = oracle.SnapshotElements();

      for (const char* site : {"memgrid.apply.alloc", "memgrid.build.alloc",
                               "memgrid.build.worker"}) {
        const std::string ctx = std::string(site) +
                                " shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);
        MemGrid victim = base;
        fail::FailpointConfig fp;
        fp.seed = 9;
        fp.max_trips = 1;
        fail::Registry::Global().Arm(site, fp);
        EXPECT_THROW(victim.ApplyUpdates(updates), fail::FaultInjected)
            << ctx;
        fail::Registry::Global().DisarmAll();

        std::string err;
        ASSERT_TRUE(victim.CheckInvariants(&err)) << ctx << ": " << err;
        EXPECT_TRUE(SameElements(victim.SnapshotElements(), pre)) << ctx;
        core::MemGridUpdateStats want = base.update_stats();
        ++want.rollbacks;
        EXPECT_TRUE(SameStats(victim.update_stats(), want)) << ctx;
        EXPECT_EQ(victim.Shape().max_half_extent,
                  base.Shape().max_half_extent)
            << ctx;
        ASSERT_EQ(victim.ApplyUpdates(updates), updates.size()) << ctx;
        EXPECT_TRUE(SameElements(victim.SnapshotElements(), post)) << ctx;
        EXPECT_EQ(victim.update_stats().rebuilds, 2u) << ctx;
        ASSERT_TRUE(victim.CheckInvariants(&err)) << ctx << ": " << err;
      }
    }
  }
}

// An incremental compaction pass that dies mid-copy is absorbed: the
// shard falls back to a full re-layout and the batch's results stand.
TEST_F(FaultInjectionTest, CompactionAbortDegradesToRelayout) {
  const auto elems = GenerateUniformBoxes(3000, kUniverse, 0.1f, 0.4f, 24);
  MemGridConfig cfg;
  cfg.cell_size = 4.0f;
  cfg.layout = CellLayout::kMorton;
  cfg.shards = 2;
  cfg.compact_regions_per_batch = 4;
  MemGrid oracle(kUniverse, cfg);
  oracle.Build(elems);
  MemGrid victim = oracle;

  std::vector<std::vector<ElementUpdate>> batches;
  for (std::uint64_t b = 0; b < 10; ++b) {
    auto cur = elems;
    batches.push_back(MakeBatch(cur, 500 + b));
    for (const ElementUpdate& u : batches.back()) {
      cur[u.id].box = u.new_box;
    }
  }
  for (const auto& batch : batches) {
    ASSERT_EQ(oracle.ApplyUpdates(batch), batch.size());
  }
  const auto post = oracle.SnapshotElements();

  fail::FailpointConfig fp;
  fp.probability = 0.5;
  fp.seed = 77;
  fail::Registry::Global().Arm("memgrid.compact.advance", fp);
  std::uint64_t trips = 0;
  for (const auto& batch : batches) {
    std::size_t applied = 0;
    try {
      applied = victim.ApplyUpdates(batch);
    } catch (const fail::FaultInjected&) {
      // The fault can also land BEFORE the commit point (a mid-batch
      // pass finish inside a region reservation); then the batch rolled
      // back — re-apply it clean to stay in lockstep with the oracle.
      trips += fail::Registry::Global().Stats("memgrid.compact.advance").trips;
      fail::Registry::Global().DisarmAll();
      applied = victim.ApplyUpdates(batch);
      fail::Registry::Global().Arm("memgrid.compact.advance", fp);
    }
    ASSERT_EQ(applied, batch.size());
    std::string err;
    ASSERT_TRUE(victim.CheckInvariants(&err)) << err;
  }
  trips += fail::Registry::Global().Stats("memgrid.compact.advance").trips;
  fail::Registry::Global().DisarmAll();
  EXPECT_TRUE(SameElements(victim.SnapshotElements(), post));
  if (trips > 0) {
    EXPECT_GE(victim.update_stats().compaction_aborts, 1u);
  }
}

TEST_F(FaultInjectionTest, PageStoreRetriesTransientFaultsThenRecovers) {
  storage::PageStore store;
  const storage::PageId pg = store.Allocate();
  std::vector<std::byte> payload(store.page_size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 31 + 7);
  }
  store.Write(pg, payload);

  // Two transient failures, then the medium recovers: the read succeeds
  // and the retries show up in the counters with their virtual backoff.
  fail::FailpointConfig fp;
  fp.seed = 5;
  fp.action = fail::Action::kError;
  fp.max_trips = 2;
  fail::Registry::Global().Arm("pagestore.read.transient", fp);
  std::vector<std::byte> out(store.page_size());
  QueryCounters c;
  store.Read(pg, out.data(), &c);
  fail::Registry::Global().DisarmAll();
  EXPECT_EQ(c.io_retries, 2u);
  EXPECT_EQ(c.pages_read, 1u);
  EXPECT_EQ(std::memcmp(out.data(), payload.data(), payload.size()), 0);
  const auto backoff_ns = static_cast<std::uint64_t>(
      store.model().retry_backoff_us * 1e3 * (1 + 2));
  EXPECT_GE(c.io_virtual_ns, backoff_ns);

  // A fault that never clears exhausts the retry budget and surfaces.
  fp.max_trips = 0;
  fail::Registry::Global().Arm("pagestore.read.transient", fp);
  QueryCounters c2;
  EXPECT_THROW(store.Read(pg, out.data(), &c2), storage::TransientIoError);
  fail::Registry::Global().DisarmAll();
  EXPECT_EQ(c2.io_retries, store.model().max_read_retries);

  // And the store itself is fine once the fault clears.
  store.Read(pg, out.data(), nullptr);
  EXPECT_EQ(std::memcmp(out.data(), payload.data(), payload.size()), 0);
}

TEST_F(FaultInjectionTest, TornWriteIsDetectedByChecksum) {
  storage::PageStore store;
  const storage::PageId pg = store.Allocate();
  std::vector<std::byte> payload(store.page_size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i ^ 0x5a);
  }
  fail::FailpointConfig fp;
  fp.action = fail::Action::kError;
  fp.max_trips = 1;
  fail::Registry::Global().Arm("pagestore.write.torn", fp);
  store.Write(pg, payload);
  fail::Registry::Global().DisarmAll();
  ASSERT_TRUE(store.IsSealed(pg));

  std::vector<std::byte> out(store.page_size());
  QueryCounters c;
  EXPECT_THROW(store.Read(pg, out.data(), &c), storage::CorruptPageError);
  EXPECT_EQ(c.io_retries, store.model().max_read_retries);

  // Rewriting the page (an intact write this time) repairs it.
  store.Write(pg, payload);
  store.Read(pg, out.data(), nullptr);
  EXPECT_EQ(std::memcmp(out.data(), payload.data(), payload.size()), 0);
}

TEST_F(FaultInjectionTest, BufferPoolSurfacesReadFailureWithoutLeaking) {
  storage::PageStore store;
  const storage::PageId pg = store.Allocate();
  std::vector<std::byte> payload(store.page_size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i + 1);
  }
  store.Write(pg, payload);
  storage::BufferPool pool(&store, 4);

  fail::FailpointConfig fp;
  fp.action = fail::Action::kError;
  fail::Registry::Global().Arm("pagestore.read.transient", fp);
  QueryCounters c;
  EXPECT_THROW((void)pool.Fetch(pg, &c), storage::TransientIoError);
  fail::Registry::Global().DisarmAll();

  // The failed fetch pinned nothing, cached nothing and freed its frame.
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(pool.resident_pages(), 0u);
  const auto guard = pool.Fetch(pg, &c);
  ASSERT_TRUE(guard.valid());
  EXPECT_EQ(std::memcmp(guard.data(), payload.data(), payload.size()), 0);
}

}  // namespace
}  // namespace simspatial
