// Tests for storage::MultiLevelStore — checkpoint placement across the
// three levels and recovery after each failure class, including the RAID-5
// reconstruction path and reseeding after catastrophic loss.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "ckpt/checkpointer.h"
#include "common/check.h"
#include "common/rng.h"
#include "mem/snapshot.h"
#include "storage/multilevel_store.h"

namespace aic::storage {
namespace {

/// Builds a chain of checkpoint files from a mutating space and stores
/// each one; returns the final state for verification.
struct StoredJob {
  std::vector<ckpt::CheckpointFile> files;
  mem::Snapshot final_state;
};

StoredJob store_job(MultiLevelStore& store, int increments, Rng& rng) {
  mem::AddressSpace space;
  space.allocate_range(0, 32);
  for (mem::PageId id = 0; id < 32; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  ckpt::CheckpointChain chain;
  StoredJob job;
  chain.capture(space, {}, 0.0);
  store.put_checkpoint(chain.files().back());
  space.protect_all();
  for (int i = 1; i <= increments; ++i) {
    Bytes edit(64);
    for (auto& x : edit) x = std::uint8_t(rng());
    space.write(rng.uniform_u64(32), rng.uniform_u64(kPageSize - 64), edit);
    chain.capture(space, {}, double(i));
    store.put_checkpoint(chain.files().back());
    space.protect_all();
  }
  job.files = chain.files();
  job.final_state = mem::Snapshot::capture(space);
  return job;
}

mem::Snapshot restore_from(const MultiLevelStore::Recovery& rec) {
  delta::PageAlignedCompressor pa;
  return ckpt::RestartEngine::restore(rec.chain, pa).memory;
}

TEST(MultiLevelStore, PlacementReachesAllLevelsWithSaneTimes) {
  MultiLevelStore store;
  Rng rng(1);
  store_job(store, 3, rng);
  EXPECT_EQ(store.checkpoints_stored(), 4u);
  EXPECT_GT(store.local().stored_bytes(), 0u);
  EXPECT_GT(store.raid().stored_bytes(), 0u);
  EXPECT_GT(store.remote().stored_bytes(), 0u);
  // Remote is the slow path.
  ckpt::CheckpointFile probe;
  probe.payload.assign(1000000, 7);
  const auto times = store.put_checkpoint(probe);
  EXPECT_GT(times.remote, times.local);
  EXPECT_GT(times.remote, times.raid);
}

TEST(MultiLevelStore, RecoverPrefersLocal) {
  MultiLevelStore store;
  Rng rng(2);
  auto job = store_job(store, 4, rng);
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 1);
  EXPECT_TRUE(job.final_state.equals_space(
      restore_from(*rec).materialize()));
}

TEST(MultiLevelStore, Level2FailureFallsBackToRaidWithRebuild) {
  MultiLevelStore store;
  Rng rng(3);
  auto job = store_job(store, 4, rng);
  store.apply_failure(2, rng);
  EXPECT_EQ(store.local().stored_bytes(), 0u);  // replacement disk is empty
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 2);
  EXPECT_TRUE(job.final_state.equals_space(
      restore_from(*rec).materialize()));
}

TEST(MultiLevelStore, Level3FailureOnlyRemoteSurvives) {
  MultiLevelStore store;
  Rng rng(4);
  auto job = store_job(store, 4, rng);
  store.apply_failure(3, rng);
  EXPECT_FALSE(store.raid().available());
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 3);
  EXPECT_TRUE(job.final_state.equals_space(
      restore_from(*rec).materialize()));
}

TEST(MultiLevelStore, ReseedRestoresLowerLevelsAfterCatastrophe) {
  MultiLevelStore store;
  Rng rng(5);
  auto job = store_job(store, 3, rng);
  store.apply_failure(3, rng);
  store.repair_raid_group();
  const auto copied = store.reseed_from_remote();
  EXPECT_GT(copied, 0u);
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 1) << "local should be reseeded and preferred";
  EXPECT_TRUE(job.final_state.equals_space(
      restore_from(*rec).materialize()));
}

TEST(MultiLevelStore, EmptyStoreHasNothingToRecover) {
  MultiLevelStore store;
  EXPECT_FALSE(store.recover().has_value());
}

TEST(MultiLevelStore, PartialLocalChainFallsBackDeeper) {
  // Write three checkpoints; wipe the local disk mid-way by a level-2
  // failure, then take MORE checkpoints (local now has only the tail,
  // which lacks its full ancestor) — recovery must come from a deeper
  // level that holds the complete chain.
  MultiLevelStore store;
  Rng rng(6);
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  ckpt::CheckpointChain chain;
  chain.capture(space, {}, 0.0);
  store.put_checkpoint(chain.files().back());
  space.protect_all();

  Bytes edit = {1, 2, 3};
  space.write(5, 0, edit);
  chain.capture(space, {}, 1.0);
  store.put_checkpoint(chain.files().back());
  space.protect_all();

  store.apply_failure(2, rng);  // local gone; raid survived (rebuilt)

  space.write(9, 0, edit);
  chain.capture(space, {}, 2.0);
  store.put_checkpoint(chain.files().back());
  space.protect_all();

  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 2)
      << "local holds only an incremental without its full ancestor";
  EXPECT_TRUE(mem::Snapshot::capture(space).equals_space(
      restore_from(*rec).materialize()));
}

// ---------- pricing ----------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The store prices the blocking local write and every recovered file at
// the config's level bandwidth (c_k = bytes / B_k, r_k = c_k). Pinned as
// IEEE-754 bits for a seeded 4-checkpoint chain, so a pricing change that
// moves any duration by one ulp fails here.
TEST(MultiLevelStore, PricingIsPinnedBitExact) {
  MultiLevelStore store;
  Rng rng(11);
  mem::AddressSpace space;
  space.allocate_range(0, 32);
  for (mem::PageId id = 0; id < 32; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  ckpt::CheckpointChain chain;
  std::vector<std::uint64_t> local;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      Bytes edit(std::size_t(300 * i));  // a distinct file size per capture
      for (auto& x : edit) x = std::uint8_t(rng());
      space.write(rng.uniform_u64(32),
                  rng.uniform_u64(kPageSize - edit.size()), edit);
    }
    chain.capture(space, {}, double(i));
    local.push_back(bits(store.put_checkpoint(chain.files().back()).local));
    space.protect_all();
  }
  EXPECT_EQ(local, (std::vector<std::uint64_t>{
                       0x3f557c1320ef0deaULL, 0x3ecd1bc4ac97ce12ULL,
                       0x3edb231c0ed45933ULL, 0x3ee3dc2ae3ae65afULL}));

  std::vector<std::uint64_t> read;
  auto recovered_from = [&](int level) {
    const auto rec = store.recover();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->level_used, level);
    EXPECT_EQ(rec->chain.size(), 4u);
    read.push_back(bits(rec->read_seconds));
  };
  recovered_from(1);
  store.apply_failure(2, rng);
  recovered_from(2);
  store.apply_failure(3, rng);
  recovered_from(3);
  EXPECT_EQ(read, (std::vector<std::uint64_t>{0x3f55cd7c751b8af6ULL,
                                              0x3f35cd7c751b8af6ULL,
                                              0x3fb108893b7d8490ULL}));
}

TEST(MultiLevelStore, NonPositiveLevelBandwidthIsRejectedAtConstruction) {
  for (double MultiLevelConfig::*bps :
       {&MultiLevelConfig::local_bps, &MultiLevelConfig::raid_bps,
        &MultiLevelConfig::remote_bps}) {
    MultiLevelConfig config;
    config.*bps = 0.0;
    EXPECT_THROW(MultiLevelStore{config}, CheckError);
  }
}

// ---------- rewind-window reclamation ----------

/// Applies one chain prune to the store: the victim's objects are erased
/// at every level and, when the prune re-anchored the successor, the
/// stored successor is rewritten with the new full file.
void apply_prune(MultiLevelStore& store, const ckpt::CheckpointChain& chain) {
  const auto& ev = chain.last_prune();
  ASSERT_TRUE(ev.has_value());
  const ckpt::CheckpointFile* reanchored = nullptr;
  if (ev->reanchored_sequence.has_value()) {
    for (const ckpt::CheckpointFile& f : chain.files()) {
      if (f.sequence == *ev->reanchored_sequence) {
        reanchored = &f;
        break;
      }
    }
    ASSERT_NE(reanchored, nullptr);
  }
  store.reclaim_checkpoint(ev->victim_sequence, reanchored);
}

TEST(RewindStore, ReclaimBoundsStorageAndKeepsRecoveryRestorable) {
  MultiLevelStore store;
  Rng rng(0x2EC1);
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  ckpt::CheckpointChain::Config cfg;
  cfg.full_period = 0;  // every prune of a delta successor must re-anchor
  cfg.rewind_budget = 4;
  ckpt::CheckpointChain chain(cfg);
  for (int i = 0; i < 15; ++i) {
    chain.capture(space, {}, double(i + 1));
    store.put_checkpoint(chain.files().back());
    if (i >= int(cfg.rewind_budget)) apply_prune(store, chain);
    space.protect_all();
    Bytes edit(64);
    for (auto& x : edit) x = std::uint8_t(rng());
    space.write(rng.uniform_u64(16), rng.uniform_u64(kPageSize - 64), edit);

    // Storage is bounded: each level holds exactly the window's live set.
    std::size_t local_objects = 0;
    for (std::uint64_t s : chain.rewind().live_sequences()) {
      local_objects += store.local().get("ckpt-" + std::to_string(s))
                           .has_value();
    }
    ASSERT_EQ(local_objects, chain.rewind().size());

    auto rec = store.recover();
    ASSERT_TRUE(rec.has_value());
    ASSERT_EQ(rec->chain.front().kind, ckpt::CheckpointKind::kFull);
    ASSERT_TRUE(chain.last_state().equals_space(
        restore_from(*rec).materialize()));
  }
  EXPECT_GT(chain.rewind().discards(), 0u);
}

TEST(RewindStore, ReclaimResubmitsUnfinishedSuccessorDrains) {
  MultiLevelStore store;
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  ckpt::CheckpointChain::Config cfg;
  cfg.full_period = 0;
  cfg.rewind_budget = 4;
  ckpt::CheckpointChain chain(cfg);
  // Queue drains without draining them: when the window first overflows,
  // the successor's L2/L3 transfers still carry the stale delta bytes.
  for (int i = 0; i < 5; ++i) {
    chain.capture(space, {}, double(i + 1));
    store.put_checkpoint_async(chain.files().back());
    space.protect_all();
    space.write(i % 16, 0, Bytes(32, std::uint8_t(i + 1)));
  }
  apply_prune(store, chain);
  store.xfer().run_until_idle();

  // Whatever the drains committed must match the re-anchored chain: the
  // successor's remote object is a parseable FULL checkpoint, and recovery
  // (after losing the local level) restores the newest state.
  const auto& ev = chain.last_prune();
  ASSERT_TRUE(ev->reanchored_sequence.has_value());
  auto remote_bytes =
      store.remote().get("ckpt-" + std::to_string(*ev->reanchored_sequence));
  ASSERT_TRUE(remote_bytes.has_value());
  EXPECT_EQ(ckpt::CheckpointFile::parse(*remote_bytes).kind,
            ckpt::CheckpointKind::kFull);
  EXPECT_FALSE(
      store.remote().get("ckpt-" + std::to_string(ev->victim_sequence))
          .has_value());

  Rng rng(7);
  store.apply_failure(2, rng);
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  ASSERT_GE(rec->level_used, 2);
  EXPECT_TRUE(chain.last_state().equals_space(
      restore_from(*rec).materialize()));
}

TEST(RewindStore, ReclaimingTheNewestCheckpointIsRejected) {
  MultiLevelStore store;
  mem::AddressSpace space;
  space.allocate(0);
  ckpt::CheckpointChain chain;
  chain.capture(space, {}, 1.0);
  store.put_checkpoint(chain.files().back());
  EXPECT_THROW((void)store.reclaim_checkpoint(0), CheckError);
}

}  // namespace
}  // namespace aic::storage
