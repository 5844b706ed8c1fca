#include "baselines/lru_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "util/rng.h"

namespace mmr {
namespace {

// The list + hash-map LRU the flat cache replaced, kept as the reference
// model for the differential test below.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t capacity) : capacity_(capacity) {}

  bool access(ObjectId key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }
  bool contains(ObjectId key) const { return map_.count(key) > 0; }
  bool insert(ObjectId key, std::uint64_t bytes) {
    if (bytes > capacity_) return false;
    const auto it = map_.find(key);
    if (it != map_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    while (used_ + bytes > capacity_) {
      used_ -= order_.back().second;
      map_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    order_.push_front({key, bytes});
    map_[key] = order_.begin();
    used_ += bytes;
    return true;
  }
  bool erase(ObjectId key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    used_ -= it->second->second;
    order_.erase(it->second);
    map_.erase(it);
    return true;
  }

  std::uint64_t used_bytes() const { return used_; }
  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  using Entry = std::pair<ObjectId, std::uint64_t>;
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::list<Entry> order_;  // front = most recent
  std::unordered_map<ObjectId, std::list<Entry>::iterator> map_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

TEST(LruCache, HitAndMissAccounting) {
  LruCache cache(100);
  EXPECT_FALSE(cache.access(1));
  EXPECT_TRUE(cache.insert(1, 40));
  EXPECT_TRUE(cache.access(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.used_bytes(), 40u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(100);
  cache.insert(1, 40);
  cache.insert(2, 40);
  cache.access(1);          // 2 is now LRU
  cache.insert(3, 40);      // must evict 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCache, EvictsMultipleForLargeInsert) {
  LruCache cache(100);
  cache.insert(1, 30);
  cache.insert(2, 30);
  cache.insert(3, 30);
  cache.insert(4, 70);  // evicts 1 and 2 (30+70 <= 100)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(LruCache, RejectsOversizedObject) {
  LruCache cache(50);
  EXPECT_FALSE(cache.insert(1, 51));
  EXPECT_TRUE(cache.empty());
  EXPECT_TRUE(cache.insert(2, 50));  // exactly fits
  EXPECT_EQ(cache.used_bytes(), 50u);
}

TEST(LruCache, ZeroCapacityHoldsNothing) {
  LruCache cache(0);
  EXPECT_FALSE(cache.insert(1, 1));
  EXPECT_FALSE(cache.access(1));
  EXPECT_TRUE(cache.empty());
}

TEST(LruCache, ReinsertRefreshesRecency) {
  LruCache cache(100);
  cache.insert(1, 40);
  cache.insert(2, 40);
  cache.insert(1, 40);     // refresh: 2 becomes LRU
  cache.insert(3, 40);     // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.used_bytes(), 80u);  // no double count on refresh
}

TEST(LruCache, AccessRefreshesRecency) {
  LruCache cache(90);
  cache.insert(1, 30);
  cache.insert(2, 30);
  cache.insert(3, 30);
  cache.access(1);      // order (MRU->LRU): 1, 3, 2
  cache.insert(4, 30);  // evicts 2
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
}

TEST(LruCache, EraseFreesSpace) {
  LruCache cache(100);
  cache.insert(1, 60);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_TRUE(cache.insert(2, 100));
}

TEST(LruCache, ContainsDoesNotTouchRecency) {
  LruCache cache(60);
  cache.insert(1, 30);
  cache.insert(2, 30);
  EXPECT_TRUE(cache.contains(1));  // peek only; 1 stays LRU
  cache.insert(3, 30);             // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LruCache, StressConsistency) {
  LruCache cache(1000);
  std::uint64_t next_key = 0;
  for (int round = 0; round < 2000; ++round) {
    cache.insert(static_cast<ObjectId>(next_key++ % 50),
                 (round % 90) + 10);
    ASSERT_LE(cache.used_bytes(), 1000u);
  }
  EXPECT_GT(cache.evictions(), 0u);
}

// Random access/insert/erase/contains mixes against the reference model,
// comparing every observable after every operation. Keys run far past the
// flat array's current size, sizes include zero-byte and oversize objects,
// and reinserting a present key refreshes it.
TEST(LruCache, MatchesReferenceModel) {
  const std::uint64_t capacities[] = {0, 1, 100, 1000, 50000};
  for (std::uint64_t capacity : capacities) {
    SCOPED_TRACE(capacity);
    LruCache cache(capacity);
    ReferenceLru model(capacity);
    Rng rng(capacity + 7);
    // Sizes are a fixed function of the key, as object sizes are.
    auto size_of = [&](ObjectId k) -> std::uint64_t {
      if (k % 17 == 0) return 0;
      if (k % 13 == 0) return capacity + 1 + k % 5;  // never fits
      return 1 + (static_cast<std::uint64_t>(k) * 2654435761u) % 400;
    };
    for (int op = 0; op < 20000; ++op) {
      // Mostly a hot set of 200 keys, sometimes a key well beyond it.
      const auto key = static_cast<ObjectId>(
          rng.bernoulli(0.9) ? rng.bounded(200) : rng.bounded(100000));
      switch (rng.bounded(4)) {
        case 0:
          ASSERT_EQ(cache.access(key), model.access(key));
          break;
        case 1:
          ASSERT_EQ(cache.insert(key, size_of(key)),
                    model.insert(key, size_of(key)));
          break;
        case 2:
          ASSERT_EQ(cache.erase(key), model.erase(key));
          break;
        default:
          ASSERT_EQ(cache.contains(key), model.contains(key));
          break;
      }
      ASSERT_EQ(cache.hits(), model.hits());
      ASSERT_EQ(cache.misses(), model.misses());
      ASSERT_EQ(cache.evictions(), model.evictions());
      ASSERT_EQ(cache.used_bytes(), model.used_bytes());
      ASSERT_EQ(cache.size(), model.size());
      ASSERT_EQ(cache.empty(), model.size() == 0);
      const auto probe = static_cast<ObjectId>(rng.bounded(300));
      ASSERT_EQ(cache.contains(probe), model.contains(probe));
    }
    for (ObjectId k = 0; k < 200; ++k) {
      ASSERT_EQ(cache.contains(k), model.contains(k)) << k;
    }
  }
}

}  // namespace
}  // namespace mmr
