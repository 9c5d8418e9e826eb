// Golden chains for correcting-mode whole-page move detection. The
// constants below were recorded from the per-call MoveIndex (rebuilt over
// the whole previous image inside every compress()), before the index
// became persistent CheckpointChain state updated from each checkpoint's
// dirty and freed pages only. They pin absolute values — an FNV-1a digest
// of every serialized checkpoint file and its CaptureStats, plus the total
// pages_moved — so an index that drifts from the accumulated image, or
// picks a different source among identical pages, cannot pass them.
//
// Each chain is a seeded script over a 96-page address space: whole-page
// move runs (memmove by pages, up to 32 pages, so the 3-worker pipeline
// really shards), runs of identical zero pages, pages duplicated to other
// ids, frees followed by re-allocation of the same ids, in-page edits and
// identical rewrites, and one rollback_to mid-chain. Every chain runs
// through both capture paths (live space and pre-copied pages) at 1 and 3
// compression workers; all four must give the same constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ckpt/checkpointer.h"
#include "common/rng.h"
#include "common/units.h"
#include "mem/address_space.h"
#include "mem/snapshot.h"

namespace aic::ckpt {
namespace {

constexpr mem::PageId kIdSpace = 96;
constexpr int kIntervals = 36;
constexpr int kRollbackAt = 20;  // interval after which the chain rewinds

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(std::uint8_t(v >> (8 * i)));
  }
  void bytes(ByteSpan s) {
    u64(s.size());
    for (const std::uint8_t b : s) byte(b);
  }
  void stats(const CaptureStats& s) {
    u64(std::uint64_t(s.kind));
    u64(s.pages_written);
    u64(s.freed_pages);
    u64(s.uncompressed_bytes);
    u64(s.file_bytes);
    u64(s.delta_work_units);
    u64(s.pages_delta);
    u64(s.pages_raw);
    u64(s.pages_same);
    u64(s.pages_moved);
  }
};

enum class Path { kLive, kPages };

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t pages_moved = 0;
};

Bytes random_page(Rng& rng) {
  Bytes b(kPageSize);
  for (auto& x : b) x = std::uint8_t(rng());
  return b;
}

Bytes copy_of(const mem::AddressSpace& space, mem::PageId id) {
  ByteSpan s = space.page_bytes(id);
  return Bytes(s.begin(), s.end());
}

/// Initial image: two runs of zero pages, random pages, and a few random
/// contents duplicated at several ids.
void initialize(mem::AddressSpace& space, Rng& rng) {
  space.allocate_range(0, kIdSpace);
  const Bytes shared_a = random_page(rng), shared_b = random_page(rng);
  for (mem::PageId id = 0; id < kIdSpace; ++id) {
    if ((id >= 8 && id < 20) || (id >= 60 && id < 66)) continue;  // zeros
    if (id % 17 == 3) {
      space.write_page(id, shared_a);
    } else if (id % 23 == 5) {
      space.write_page(id, shared_b);
    } else {
      space.write_page(id, random_page(rng));
    }
  }
}

/// One interval of seeded edits. Decisions depend only on the rng and the
/// space, never on what the chain emitted.
void mutate_interval(mem::AddressSpace& space, Rng& rng,
                     std::vector<Bytes>& graveyard) {
  const Bytes zero(kPageSize, 0);
  const int ops = 1 + int(rng.uniform_u64(12));
  for (int op = 0; op < ops; ++op) {
    const std::vector<mem::PageId> live = space.live_pages();
    const mem::PageId any = live[rng.uniform_u64(live.size())];
    switch (rng.uniform_u64(9)) {
      case 0:
      case 1: {  // whole-page move run (memmove semantics)
        const std::uint64_t len = 1 + rng.uniform_u64(32);
        const mem::PageId src = rng.uniform_u64(kIdSpace - len + 1);
        const mem::PageId dst = rng.uniform_u64(kIdSpace - len + 1);
        std::vector<std::pair<mem::PageId, Bytes>> moved;
        for (std::uint64_t k = 0; k < len; ++k)
          if (space.contains(src + k))
            moved.emplace_back(dst + k, copy_of(space, src + k));
        for (auto& [id, bytes] : moved) {
          if (!space.contains(id)) space.allocate(id);
          space.write_page(id, bytes);
        }
        break;
      }
      case 2: {  // in-page edit
        Bytes data(1 + rng.uniform_u64(64));
        for (auto& x : data) x = std::uint8_t(rng());
        space.write(any, rng.uniform_u64(kPageSize - data.size() + 1), data);
        break;
      }
      case 3:  // zero the page: another member of the zero-page class
        space.write_page(any, zero);
        break;
      case 4:  // free, remembering the content for a later reappearance
        if (live.size() > kIdSpace / 2) {
          graveyard.push_back(copy_of(space, any));
          space.free_page(any);
        }
        break;
      case 5: {  // re-allocate a freed id: zero, or an old content back
        std::vector<mem::PageId> dead;
        for (mem::PageId id = 0; id < kIdSpace; ++id)
          if (!space.contains(id)) dead.push_back(id);
        if (dead.empty()) break;
        const mem::PageId id = dead[rng.uniform_u64(dead.size())];
        space.allocate(id);
        if (!graveyard.empty() && rng.uniform_u64(2) == 0)
          space.write_page(id, graveyard[rng.uniform_u64(graveyard.size())]);
        break;
      }
      case 6: {  // duplicate one page's content at another id
        const mem::PageId to = live[rng.uniform_u64(live.size())];
        space.write_page(to, copy_of(space, any));
        break;
      }
      case 7:  // fresh content
        space.write_page(any, random_page(rng));
        break;
      default:  // identical rewrite: dirty, but bytes unchanged
        space.write_page(any, copy_of(space, any));
        break;
    }
  }
}

CaptureStats capture(CheckpointChain& chain, mem::AddressSpace& space,
                     Path path, const Bytes& cpu, double t) {
  CaptureStats st;
  if (path == Path::kLive) {
    st = chain.capture(space, cpu, t);
  } else {
    const mem::Snapshot pages =
        chain.next_capture_is_full()
            ? mem::Snapshot::capture(space)
            : mem::Snapshot::capture_pages(space, space.dirty_pages());
    st = chain.capture_pages(pages, space.live_pages(), cpu, t);
  }
  space.protect_all();
  return st;
}

Outcome run_chain(std::uint64_t seed, std::uint32_t full_period,
                  bool correcting, Path path, unsigned workers) {
  CheckpointChain::Config cfg;
  cfg.full_period = full_period;
  cfg.correcting = correcting;
  cfg.compress_workers = workers;
  CheckpointChain chain(cfg);
  Rng rng(seed);
  mem::AddressSpace space;
  initialize(space, rng);
  std::vector<Bytes> graveyard;

  Outcome out;
  Fnv fnv;
  const auto take = [&](int interval) {
    Bytes cpu(8);
    const auto v = std::uint64_t(interval);
    for (int i = 0; i < 8; ++i) cpu[i] = std::uint8_t(v >> (8 * i));
    const CaptureStats st = capture(chain, space, path, cpu, double(interval));
    fnv.stats(st);
    fnv.bytes(chain.files().back().serialize());
    out.pages_moved += st.pages_moved;
  };
  take(0);
  for (int interval = 1; interval <= kIntervals; ++interval) {
    mutate_interval(space, rng, graveyard);
    take(interval);
    if (interval == kRollbackAt) {
      // Failure: rewind three checkpoints and resume from that state.
      chain.rollback_to(chain.files().back().sequence - 3);
      space = chain.restore().memory.materialize();
      space.protect_all();
      fnv.u64(chain.last_state().page_count());
    }
  }
  EXPECT_TRUE(chain.restore().memory.equals_space(space));
  out.digest = fnv.h;
  return out;
}

void expect_golden(std::uint64_t seed, std::uint32_t full_period,
                   bool correcting, std::uint64_t digest,
                   std::uint64_t pages_moved) {
  for (const Path path : {Path::kLive, Path::kPages}) {
    for (const unsigned workers : {1u, 3u}) {
      const Outcome o = run_chain(seed, full_period, correcting, path, workers);
      const char* name = path == Path::kLive ? "capture" : "capture_pages";
      EXPECT_EQ(o.digest, digest) << name << " workers=" << workers;
      EXPECT_EQ(o.pages_moved, pages_moved) << name << " workers=" << workers;
    }
  }
}

TEST(MoveIndexGolden, CorrectingChainNoPeriodicFull) {
  expect_golden(7, 0, true, 8871910504204614783ULL, 707);
}

TEST(MoveIndexGolden, CorrectingChainFullEveryFour) {
  expect_golden(11, 4, true, 12863122839103682141ULL, 472);
}

TEST(MoveIndexGolden, GreedyChainIsUntouched) {
  expect_golden(7, 0, false, 4978389164194741278ULL, 0);
}

}  // namespace
}  // namespace aic::ckpt
