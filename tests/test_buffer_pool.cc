// Unit tests for the buffer pool: the fetch protocol, pinning, exact-LRU
// replacement checked op for op against a reference model of the list
// scan it replaced, and a multi-threaded fetch/unpin stress run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "util/random.h"

namespace opt {
namespace {

using FetchOutcome = BufferPool::FetchOutcome;

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(128, 4);
  auto miss = pool.Fetch(7);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->outcome, FetchOutcome::kMiss);
  // Not yet valid: a second fetch shares the frame but must wait.
  auto in_flight = pool.Fetch(7);
  ASSERT_TRUE(in_flight.ok());
  EXPECT_EQ(in_flight->outcome, FetchOutcome::kInFlight);
  EXPECT_EQ(in_flight->frame, miss->frame);
  pool.Unpin({&in_flight->frame, 1});
  pool.MarkValid({&miss->frame, 1});
  auto hit = pool.Fetch(7);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->outcome, FetchOutcome::kHit);
  EXPECT_EQ(hit->frame, miss->frame);
  // Both later fetches saved a read (the in-flight one is charged to
  // the miss's reader).
  EXPECT_EQ(pool.stats().hits.load(), 2u);
}

TEST(BufferPoolTest, EvictsColdestUnpinned) {
  BufferPool pool(128, 2);
  for (PageKey key : {PageKey{0}, PageKey{1}}) {
    auto fetched = pool.Fetch(key);
    ASSERT_TRUE(fetched.ok());
    pool.MarkValid({&fetched->frame, 1});
    pool.Unpin({&fetched->frame, 1});
  }
  // Touch page 0 so page 1 is coldest.
  auto touch = pool.Fetch(0);
  ASSERT_TRUE(touch.ok());
  EXPECT_EQ(touch->outcome, FetchOutcome::kHit);
  pool.Unpin({&touch->frame, 1});
  auto f2 = pool.Fetch(2);
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f2->outcome, FetchOutcome::kMiss);
  EXPECT_EQ(pool.stats().evictions.load(), 1u);
  auto f0 = pool.Fetch(0);  // survived
  ASSERT_TRUE(f0.ok());
  EXPECT_EQ(f0->outcome, FetchOutcome::kHit);
  pool.Unpin({&f0->frame, 1});
  auto f1 = pool.Fetch(1);  // evicted: a fresh read
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1->outcome, FetchOutcome::kMiss);
}

TEST(BufferPoolTest, FailsWhenAllPinned) {
  BufferPool pool(128, 2);
  auto f0 = pool.Fetch(0);
  auto f1 = pool.Fetch(1);
  ASSERT_TRUE(f0.ok());
  ASSERT_TRUE(f1.ok());
  auto f2 = pool.Fetch(2);
  EXPECT_EQ(f2.status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPoolTest, ClearDropsUnpinnedOnly) {
  BufferPool pool(128, 4);
  auto pinned = pool.Fetch(1);
  auto unpinned = pool.Fetch(2);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(unpinned.ok());
  pool.MarkValid({&pinned->frame, 1});
  pool.MarkValid({&unpinned->frame, 1});
  pool.Unpin({&unpinned->frame, 1});
  pool.Clear();
  auto dropped = pool.Fetch(2);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->outcome, FetchOutcome::kMiss);
  auto kept = pool.Fetch(1);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->outcome, FetchOutcome::kHit);
}

const char* OutcomeName(FetchOutcome outcome) {
  switch (outcome) {
    case FetchOutcome::kHit:
      return "hit";
    case FetchOutcome::kInFlight:
      return "in-flight";
    case FetchOutcome::kMiss:
      return "miss";
  }
  return "?";
}

/// Reference model of LRU replacement done the straightforward way: a
/// recency list of resident pages that every Fetch moves to the hot end,
/// scanned from the cold end for the first unpinned page. It mirrors the
/// pool's frame table so it can name the frame (and so the page) a miss
/// must evict. Which free frame a miss takes is the pool's business (its
/// free-list order follows hash-table iteration in Clear/DropOwner): the
/// model only checks that the frame was free.
class ListScanLruModel {
 public:
  explicit ListScanLruModel(uint32_t num_frames) : frames_(num_frames) {
    for (uint32_t i = 0; i < num_frames; ++i) free_.insert(i);
  }

  /// Replays Fetch(key) against the pool's answer `got`. Returns "" when
  /// the pool did what the list scan would have, else what differs.
  std::string Fetch(PageKey key,
                    const Result<BufferPool::FetchResult>& got) {
    ++stats_.lookups;
    auto it = table_.find(key);
    if (it != table_.end()) {
      ModelFrame& frame = frames_[it->second];
      ++frame.pins;
      Touch(key);
      ++stats_.hits;
      const FetchOutcome want =
          frame.valid ? FetchOutcome::kHit : FetchOutcome::kInFlight;
      if (!got.ok()) return std::string("want ") + OutcomeName(want) +
                            ", got " + got.status().ToString();
      if (got->outcome != want || got->frame->index != it->second) {
        return std::string("want ") + OutcomeName(want) + " in frame " +
               std::to_string(it->second) + ", got " +
               OutcomeName(got->outcome) + " in frame " +
               std::to_string(got->frame->index);
      }
      return "";
    }
    ++stats_.allocations;
    uint32_t index;
    if (!free_.empty()) {
      if (!got.ok()) {
        return "want a miss into a free frame, got " +
               got.status().ToString();
      }
      index = got->frame->index;
      if (free_.erase(index) == 0) {
        return "miss took frame " + std::to_string(index) +
               ", which is not free";
      }
    } else {
      auto victim = std::find_if(lru_.begin(), lru_.end(), [&](PageKey k) {
        return frames_[table_.at(k)].pins == 0;
      });
      if (victim == lru_.end()) {
        if (got.ok()) {
          return "want ResourceExhausted, got a frame for page " +
                 std::to_string(key);
        }
        return got.status().code() == StatusCode::kResourceExhausted
                   ? ""
                   : "want ResourceExhausted, got " + got.status().ToString();
      }
      const PageKey victim_key = *victim;
      index = table_.at(victim_key);
      lru_.erase(victim);
      table_.erase(victim_key);
      ++stats_.evictions;
      if (!got.ok()) {
        return "want eviction of page " + std::to_string(victim_key) +
               ", got " + got.status().ToString();
      }
      if (got->frame->index != index) {
        return "want eviction of page " + std::to_string(victim_key) +
               " (frame " + std::to_string(index) + "), pool took frame " +
               std::to_string(got->frame->index);
      }
    }
    if (got->outcome != FetchOutcome::kMiss || got->frame->key != key) {
      return std::string("want a miss for page ") + std::to_string(key) +
             ", got " + OutcomeName(got->outcome);
    }
    frames_[index] = ModelFrame{key, 1, false};
    table_[key] = index;
    lru_.push_back(key);
    return "";
  }

  void MarkValid(uint32_t index) { frames_[index].valid = true; }

  void MarkFailed(uint32_t index) {
    auto it = table_.find(frames_[index].key);
    if (it != table_.end() && it->second == index) Drop(frames_[index].key);
  }

  void Pin(uint32_t index) { ++frames_[index].pins; }

  void Unpin(uint32_t index) {
    ModelFrame& frame = frames_[index];
    if (--frame.pins != 0) return;
    auto it = table_.find(frame.key);
    if (it == table_.end() || it->second != index) Free(index);
  }

  /// Clear() (no owner) and DropOwner(owner).
  void DropUnpinned(std::optional<uint32_t> owner) {
    std::vector<PageKey> keys;
    for (const auto& [key, index] : table_) {
      if (frames_[index].pins != 0) continue;
      if (owner.has_value() && PageKeyOwner(key) != *owner) continue;
      keys.push_back(key);
    }
    for (PageKey key : keys) {
      const uint32_t index = table_.at(key);
      Drop(key);
      Free(index);
    }
  }

  const PoolStatsSnapshot& stats() const { return stats_; }

 private:
  struct ModelFrame {
    PageKey key = kInvalidPageKey;
    uint32_t pins = 0;
    bool valid = false;
  };

  void Touch(PageKey key) {
    lru_.remove(key);
    lru_.push_back(key);
  }
  void Drop(PageKey key) {
    lru_.remove(key);
    table_.erase(key);
  }
  void Free(uint32_t index) {
    frames_[index] = ModelFrame{};
    free_.insert(index);
  }

  std::vector<ModelFrame> frames_;
  std::unordered_map<PageKey, uint32_t> table_;
  std::list<PageKey> lru_;  // front = coldest
  std::set<uint32_t> free_;
  PoolStatsSnapshot stats_;
};

bool SameStats(const PoolStatsSnapshot& a, const PoolStatsSnapshot& b) {
  return a.lookups == b.lookups && a.hits == b.hits &&
         a.evictions == b.evictions && a.allocations == b.allocations;
}

TEST(BufferPoolReplacementTest, EvictsExactlyWhatTheListScanWould) {
  constexpr uint32_t kBlockOwner = 9;
  constexpr int kOps = 12000;
  for (uint32_t num_frames : {4u, 16u, 64u}) {
    SCOPED_TRACE("frames=" + std::to_string(num_frames));
    BufferPool pool(64, num_frames);
    ListScanLruModel model(num_frames);
    Random64 rng(num_frames);
    std::vector<Frame*> held;        // one entry per pin this test owns
    std::vector<Frame*> unresolved;  // owned misses, pinned, not yet read
    uint64_t outcomes[3] = {0, 0, 0};
    uint64_t exhausted = 0;

    // A block of about half the frames is fetched first and stays pinned,
    // so it sits at the cold end the whole run — the internal area's
    // place in OPT's iterations.
    const uint32_t block = num_frames / 2;
    for (uint32_t pid = 0; pid < block; ++pid) {
      const PageKey key = MakePageKey(kBlockOwner, pid);
      auto got = pool.Fetch(key);
      ASSERT_EQ(model.Fetch(key, got), "");
      pool.MarkValid({&got->frame, 1});
      model.MarkValid(got->frame->index);
    }

    const uint32_t key_space = 3 * num_frames;
    for (int op = 0; op < kOps; ++op) {
      SCOPED_TRACE("op=" + std::to_string(op));
      const uint64_t dice = rng.Uniform(100);
      const bool crowded =
          held.size() + unresolved.size() >= num_frames - block;
      if (dice < 45 && !(crowded && rng.Uniform(2) == 0)) {
        const PageKey key =
            rng.Uniform(10) == 0
                ? MakePageKey(kBlockOwner,
                              static_cast<uint32_t>(rng.Uniform(block)))
                : MakePageKey(static_cast<uint32_t>(rng.Uniform(2)),
                              static_cast<uint32_t>(rng.Uniform(key_space)));
        auto got = pool.Fetch(key);
        ASSERT_EQ(model.Fetch(key, got), "") << "Fetch(" << key << ")";
        if (!got.ok()) {
          ++exhausted;
        } else {
          ++outcomes[static_cast<int>(got->outcome)];
          (got->outcome == FetchOutcome::kMiss ? unresolved : held)
              .push_back(got->frame);
        }
      } else if (dice < 60) {
        if (unresolved.empty()) continue;
        const size_t i = rng.Uniform(unresolved.size());
        Frame* frame = unresolved[i];
        unresolved.erase(unresolved.begin() + static_cast<ptrdiff_t>(i));
        if (rng.Uniform(5) == 0) {
          pool.MarkFailed({&frame, 1});
          model.MarkFailed(frame->index);
        } else {
          pool.MarkValid({&frame, 1});
          model.MarkValid(frame->index);
        }
        held.push_back(frame);
      } else if (dice < 90) {
        if (held.empty()) continue;
        const size_t i = rng.Uniform(held.size());
        Frame* frame = held[i];
        held.erase(held.begin() + static_cast<ptrdiff_t>(i));
        const uint32_t index = frame->index;
        pool.Unpin({&frame, 1});
        model.Unpin(index);
      } else if (dice < 95) {
        if (held.empty()) continue;
        Frame* frame = held[rng.Uniform(held.size())];
        pool.Pin({&frame, 1});
        model.Pin(frame->index);
        held.push_back(frame);
      } else if (dice < 99) {
        const uint32_t owner = static_cast<uint32_t>(rng.Uniform(2));
        pool.DropOwner(owner);
        model.DropUnpinned(owner);
      } else {
        pool.Clear();
        model.DropUnpinned(std::nullopt);
      }
      ASSERT_TRUE(SameStats(pool.stats().Snapshot(), model.stats()));
    }
    // Every kind of outcome happened, and evictions were exercised.
    EXPECT_GT(outcomes[static_cast<int>(FetchOutcome::kHit)], 0u);
    EXPECT_GT(outcomes[static_cast<int>(FetchOutcome::kInFlight)], 0u);
    EXPECT_GT(outcomes[static_cast<int>(FetchOutcome::kMiss)], 0u);
    EXPECT_GT(exhausted, 0u);
    EXPECT_GT(pool.stats().evictions.load(), static_cast<uint64_t>(kOps / 20));

    for (Frame* frame : unresolved) {
      pool.MarkValid({&frame, 1});
      pool.Unpin({&frame, 1});
    }
    pool.Unpin(held);
    // The pinned block was never evicted.
    for (uint32_t pid = 0; pid < block; ++pid) {
      auto got = pool.Fetch(MakePageKey(kBlockOwner, pid));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->outcome, FetchOutcome::kHit);
      pool.Unpin({&got->frame, 1});  // the test's second pin
      pool.Unpin({&got->frame, 1});  // the block's own pin
    }
  }
}

TEST(BufferPoolStressTest, ConcurrentFetchUnpinNeverSharesAFrame) {
  constexpr uint32_t kFrames = 64;
  constexpr uint32_t kBlock = 32;  // stays pinned throughout
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kOpsPerThread = 20000;
  constexpr uint32_t kKeys = 256;
  constexpr uint32_t kBlockOwner = 1;
  BufferPool pool(64, kFrames);

  // Every frame holding a page carries that page's key in its first
  // bytes. A frame recycled under a live pin would show another key.
  const auto stamp = [](Frame* frame, PageKey key) {
    std::memcpy(frame->data, &key, sizeof(key));
  };
  const auto stamped = [](const Frame* frame) {
    PageKey key;
    std::memcpy(&key, frame->data, sizeof(key));
    return key;
  };

  std::vector<Frame*> block;
  for (uint32_t pid = 0; pid < kBlock; ++pid) {
    auto got = pool.Fetch(MakePageKey(kBlockOwner, pid));
    ASSERT_TRUE(got.ok());
    stamp(got->frame, MakePageKey(kBlockOwner, pid));
    pool.MarkValid({&got->frame, 1});
    block.push_back(got->frame);
  }

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random64 rng(t + 1);
      for (uint32_t i = 0; i < kOpsPerThread; ++i) {
        const PageKey key = rng.Uniform(kKeys);
        auto got = pool.Fetch(key);
        if (!got.ok()) {
          failures.fetch_add(1);
          continue;
        }
        Frame* frame = got->frame;
        if (frame->key != key) failures.fetch_add(1);
        if (got->outcome == FetchOutcome::kMiss) {
          stamp(frame, key);
          pool.MarkValid({&frame, 1});
        } else if (!pool.WaitValid(frame).ok()) {
          failures.fetch_add(1);
        }
        if (stamped(frame) != key) failures.fetch_add(1);
        if (i % 16 == 0) std::this_thread::yield();
        if (stamped(frame) != key) failures.fetch_add(1);
        pool.Unpin({&frame, 1});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);

  // Every lookup either hit or allocated; nothing was ever freed, so
  // every allocation past the first kFrames evicted exactly one page.
  const PoolStatsSnapshot stats = pool.stats().Snapshot();
  EXPECT_EQ(stats.lookups, uint64_t{kBlock} + kThreads * kOpsPerThread);
  EXPECT_EQ(stats.hits + stats.allocations, stats.lookups);
  ASSERT_GT(stats.allocations, kFrames);
  EXPECT_EQ(stats.evictions, stats.allocations - kFrames);

  for (uint32_t pid = 0; pid < kBlock; ++pid) {
    auto got = pool.Fetch(MakePageKey(kBlockOwner, pid));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->outcome, FetchOutcome::kHit);
    EXPECT_EQ(got->frame, block[pid]);
    EXPECT_EQ(stamped(got->frame), MakePageKey(kBlockOwner, pid));
    pool.Unpin({&got->frame, 1});
    pool.Unpin({&got->frame, 1});
  }
}

}  // namespace
}  // namespace opt
