// The persistent whole-page move index: CheckpointChain keeps one
// delta::MoveIndex across captures and updates it from each checkpoint's
// dirty and freed pages, instead of rebuilding it over the whole previous
// image per compress().
//
//   MoveIndex.*       find() semantics on a hand-built image: the lowest id
//                     holding the content wins, the next-lowest takes over
//                     when it is freed or rewritten, and it wins again when
//                     written back.
//   MoveIndexChain.*  differential: along a long seeded chain, the kept
//                     index equals a fresh build over last_state() and the
//                     chain's payload equals the stateless
//                     PageAlignedCompressor::compress(dirty, last_state());
//                     the same source rules through real captures; greedy
//                     and raw chains never build or update an index.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/checkpointer.h"
#include "common/rng.h"
#include "common/units.h"
#include "delta/page_delta.h"
#include "mem/address_space.h"
#include "mem/snapshot.h"

namespace aic::ckpt {
namespace {

using delta::MoveIndex;
using mem::PageId;

Bytes filled(std::uint8_t v) { return Bytes(kPageSize, v); }

Bytes random_page(Rng& rng) {
  Bytes b(kPageSize);
  for (auto& x : b) x = std::uint8_t(rng());
  return b;
}

TEST(MoveIndex, LowestIdWinsThenNextLowestThenBackAgain) {
  const Bytes c = filled(0xC3), d = filled(0xD4);
  mem::Snapshot img;
  for (PageId id : {12, 5, 9}) img.put_page(id, c);
  img.put_page(2, d);
  MoveIndex idx(img);
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx.find(c, img), std::optional<PageId>(5));
  EXPECT_EQ(idx.find(d, img), std::optional<PageId>(2));
  EXPECT_EQ(idx.find(filled(0x11), img), std::nullopt);

  // Lowest freed: the next-lowest holder takes over.
  img.erase_page(5);
  idx.erase(5);
  EXPECT_EQ(idx.find(c, img), std::optional<PageId>(9));

  // Next-lowest rewritten: 12 takes over for c, and 9 joins d's holders
  // behind the lower 2.
  img.put_page(9, d);
  idx.update(9, d);
  EXPECT_EQ(idx.find(c, img), std::optional<PageId>(12));
  EXPECT_EQ(idx.find(d, img), std::optional<PageId>(2));

  // Written back: the lowest id wins again.
  img.put_page(5, c);
  idx.update(5, c);
  img.put_page(9, c);
  idx.update(9, c);
  EXPECT_EQ(idx.find(c, img), std::optional<PageId>(5));
  EXPECT_EQ(idx.find(d, img), std::optional<PageId>(2));

  // The incrementally kept index is the one a fresh build gives.
  EXPECT_EQ(idx, MoveIndex(img));
  idx.erase(77);  // absent: no-op
  EXPECT_EQ(idx, MoveIndex(img));
}

TEST(MoveIndex, UnchangedContentUpdateIsANoOp) {
  Rng rng(3);
  mem::Snapshot img;
  for (PageId id = 0; id < 8; ++id) img.put_page(id, random_page(rng));
  MoveIndex idx(img);
  for (PageId id = 0; id < 8; ++id) idx.update(id, img.page_bytes(id));
  EXPECT_EQ(idx, MoveIndex(img));
  for (PageId id = 0; id < 8; ++id)
    EXPECT_EQ(idx.find(img.page_bytes(id), img), std::optional<PageId>(id));
}

/// One incremental record's (id, move source) from a correcting payload;
/// source is nullopt for same/raw records and == id for in-frame deltas.
struct Rec {
  PageId id;
  std::optional<PageId> src;
};

std::vector<Rec> records(ByteSpan payload) {
  std::vector<Rec> out;
  ByteReader r(payload);
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    Rec rec{r.varint(), std::nullopt};
    const std::uint8_t kind = r.u8();
    if (kind == 2) {  // same
      out.push_back(rec);
      continue;
    }
    if (kind == 3) rec.src = r.varint();  // cdelta
    (void)r.raw(r.varint());
    out.push_back(rec);
  }
  EXPECT_TRUE(r.done());
  return out;
}

std::optional<PageId> source_of(const CheckpointChain& chain, PageId id) {
  for (const Rec& rec : records(chain.files().back().payload))
    if (rec.id == id) return rec.src;
  ADD_FAILURE() << "page " << id << " not in the last payload";
  return std::nullopt;
}

CheckpointChain::Config correcting_config(unsigned workers) {
  CheckpointChain::Config cfg;
  cfg.correcting = true;
  cfg.compress_workers = workers;
  return cfg;
}

TEST(MoveIndexChain, MoveSourceFollowsLowestHolderAcrossCaptures) {
  Rng rng(17);
  const Bytes c = random_page(rng);
  mem::AddressSpace space;
  space.allocate_range(0, 32);
  for (PageId id = 0; id < 32; ++id) space.write_page(id, random_page(rng));
  for (PageId id : {5, 9, 12}) space.write_page(id, c);
  CheckpointChain chain(correcting_config(1));
  chain.capture(space, {}, 0.0);
  space.protect_all();

  // Three holders of c: a new copy moves from the lowest.
  space.write_page(20, c);
  chain.capture(space, {}, 1.0);
  space.protect_all();
  EXPECT_EQ(source_of(chain, 20), std::optional<PageId>(5));

  // Lowest freed: the next-lowest is the source.
  space.free_page(5);
  chain.capture(space, {}, 2.0);
  space.protect_all();
  space.write_page(21, c);
  chain.capture(space, {}, 3.0);
  space.protect_all();
  EXPECT_EQ(source_of(chain, 21), std::optional<PageId>(9));

  // Next-lowest rewritten in the same interval as a new copy: the copy
  // still reads the previous image (9 held c), and the interval after
  // it, 12 is the lowest holder left.
  space.write_page(9, random_page(rng));
  space.write_page(22, c);
  chain.capture(space, {}, 4.0);
  space.protect_all();
  EXPECT_EQ(source_of(chain, 22), std::optional<PageId>(9));
  space.write_page(23, c);
  chain.capture(space, {}, 5.0);
  space.protect_all();
  EXPECT_EQ(source_of(chain, 23), std::optional<PageId>(12));

  // 5 re-allocated and written back with c: it moves from 12, then wins.
  space.allocate(5);
  space.write_page(5, c);
  chain.capture(space, {}, 6.0);
  space.protect_all();
  EXPECT_EQ(source_of(chain, 5), std::optional<PageId>(12));
  space.write_page(24, c);
  chain.capture(space, {}, 7.0);
  space.protect_all();
  EXPECT_EQ(source_of(chain, 24), std::optional<PageId>(5));

  EXPECT_EQ(chain.move_index(), MoveIndex(chain.last_state()));
  EXPECT_TRUE(chain.restore().memory.equals_space(space));
}

/// Seeded churn over a 128-page space: page-run moves, zero pages,
/// duplicates, frees and re-allocations, edits.
void churn(mem::AddressSpace& space, Rng& rng) {
  const int ops = 1 + int(rng.uniform_u64(10));
  for (int op = 0; op < ops; ++op) {
    const std::vector<PageId> live = space.live_pages();
    const PageId any = live[rng.uniform_u64(live.size())];
    switch (rng.uniform_u64(6)) {
      case 0: {
        const std::uint64_t len = 1 + rng.uniform_u64(40);
        const PageId src = rng.uniform_u64(128 - len + 1);
        const PageId dst = rng.uniform_u64(128 - len + 1);
        std::vector<std::pair<PageId, Bytes>> moved;
        for (std::uint64_t k = 0; k < len; ++k) {
          if (!space.contains(src + k)) continue;
          ByteSpan b = space.page_bytes(src + k);
          moved.emplace_back(dst + k, Bytes(b.begin(), b.end()));
        }
        for (auto& [id, bytes] : moved) {
          if (!space.contains(id)) space.allocate(id);
          space.write_page(id, bytes);
        }
        break;
      }
      case 1:
        space.write_page(any, filled(0));
        break;
      case 2:
        if (live.size() > 64) space.free_page(any);
        break;
      case 3: {
        const PageId id = rng.uniform_u64(128);
        if (!space.contains(id)) space.allocate(id);
        break;
      }
      case 4: {
        ByteSpan b = space.page_bytes(any);
        space.write_page(live[rng.uniform_u64(live.size())],
                         Bytes(b.begin(), b.end()));
        break;
      }
      default: {
        Bytes edit(1 + rng.uniform_u64(32));
        for (auto& x : edit) x = std::uint8_t(rng());
        space.write(any, rng.uniform_u64(kPageSize - edit.size() + 1), edit);
        break;
      }
    }
  }
}

void run_differential(std::uint64_t seed, unsigned workers,
                      std::uint32_t full_period) {
  Rng rng(seed);
  mem::AddressSpace space;
  space.allocate_range(0, 128);
  for (PageId id = 0; id < 128; id += 1 + rng.uniform_u64(2))
    space.write_page(id, random_page(rng));
  CheckpointChain::Config cfg = correcting_config(workers);
  cfg.full_period = full_period;
  CheckpointChain chain(cfg);
  const delta::PageAlignedCompressor reference(
      delta::PageAlignedCompressor::page_config(), /*correcting=*/true);
  chain.capture(space, {}, 0.0);
  space.protect_all();
  std::uint64_t moved = 0;
  for (int i = 1; i <= 120; ++i) {
    churn(space, rng);
    const bool full = chain.next_capture_is_full();
    std::vector<delta::DirtyPage> dirty;
    for (PageId id : space.dirty_pages())
      dirty.push_back({id, space.page_bytes(id)});
    const delta::DeltaResult want = reference.compress(dirty, chain.last_state());
    const CaptureStats st = chain.capture(space, {}, double(i));
    space.protect_all();
    if (!full) {
      ASSERT_EQ(chain.files().back().payload, want.payload) << "capture " << i;
      ASSERT_EQ(st.pages_moved, want.pages_moved) << "capture " << i;
      moved += st.pages_moved;
    }
    ASSERT_EQ(chain.move_index(), MoveIndex(chain.last_state()))
        << "capture " << i;
    if (i % 50 == 0) {
      chain.rollback_to(chain.files().back().sequence - 2);
      space = chain.restore().memory.materialize();
      space.protect_all();
      ASSERT_EQ(chain.move_index(), MoveIndex(chain.last_state()))
          << "rollback after " << i;
    }
  }
  EXPECT_GT(moved, 0u);  // the chain really exercised move detection
  EXPECT_TRUE(chain.restore().memory.equals_space(space));
}

TEST(MoveIndexChain, KeptIndexMatchesFreshBuildSerial) {
  run_differential(101, 1, 0);
}

TEST(MoveIndexChain, KeptIndexMatchesFreshBuildSharded) {
  run_differential(202, 3, 0);
}

TEST(MoveIndexChain, KeptIndexMatchesFreshBuildWithPeriodicFulls) {
  run_differential(303, 3, 7);
}

TEST(MoveIndexChain, GreedyAndRawChainsNeverBuildTheIndex) {
  for (const bool delta_compress : {true, false}) {
    Rng rng(9);
    mem::AddressSpace space;
    space.allocate_range(0, 64);
    for (PageId id = 0; id < 64; ++id) space.write_page(id, random_page(rng));
    CheckpointChain::Config cfg;
    cfg.delta_compress = delta_compress;
    cfg.correcting = !delta_compress;  // raw incrementals ignore the coder
    cfg.full_period = 5;
    CheckpointChain chain(cfg);
    for (int i = 0; i < 24; ++i) {
      churn(space, rng);
      chain.capture(space, {}, double(i));
      space.protect_all();
      ASSERT_EQ(chain.move_index().size(), 0u) << "capture " << i;
      if (i == 15) {
        chain.rollback_to(chain.files().back().sequence - 2);
        space = chain.restore().memory.materialize();
        space.protect_all();
        ASSERT_EQ(chain.move_index().size(), 0u);
      }
    }
    EXPECT_TRUE(chain.restore().memory.equals_space(space));
  }
}

}  // namespace
}  // namespace aic::ckpt
