// Size-aware LRU cache used by the ideal LRU caching/redirection baseline.
//
// Keys are object ids; each entry carries a byte size and the cache holds at
// most `capacity_bytes` in total. Insertion of an oversized object is
// rejected (it can never fit); otherwise least-recently-used entries are
// evicted until the new entry fits.
//
// Object ids are dense, so the recency list is intrusive: one 16-byte node
// per id in a flat array (grown on insert), linked by uint32 indices, with
// an absent-sentinel byte size marking ids not in the cache. No per-entry
// allocation and no hashing on the per-request path.
//
// Memory therefore grows with the id universe, not with the number of
// entries: 16 B x (largest id inserted + 1). That is 240 KB for Table 1's
// 15,000 objects, but about 48 MB for a 3M-object universe even though a
// site touches at most a few thousand ids.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "model/entities.h"

namespace mmr {

class LruCache {
 public:
  explicit LruCache(std::uint64_t capacity_bytes);

  /// Looks up the object; a hit refreshes recency. Returns true on hit.
  bool access(ObjectId key);
  /// Peeks without touching recency (for tests/diagnostics).
  bool contains(ObjectId key) const;
  /// Inserts (or refreshes) the object, evicting LRU entries to make room.
  /// Returns false iff bytes > capacity (object cannot be cached at all).
  bool insert(ObjectId key, std::uint64_t bytes);
  /// Removes the object if present; returns true if it was there.
  bool erase(ObjectId key);

  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t capacity_bytes() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kAbsent =
      std::numeric_limits<std::uint64_t>::max();

  struct Node {
    std::uint64_t bytes = kAbsent;
    std::uint32_t prev = kNil;  ///< toward the most recent end
    std::uint32_t next = kNil;  ///< toward the least recent end
  };

  bool present(ObjectId key) const {
    return key < nodes_.size() && nodes_[key].bytes != kAbsent;
  }
  void link_front(ObjectId key);
  void unlink(ObjectId key);
  void evict_for(std::uint64_t bytes);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::size_t size_ = 0;
  std::vector<Node> nodes_;  // indexed by ObjectId
  std::uint32_t head_ = kNil;  // most recent
  std::uint32_t tail_ = kNil;  // least recent
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace mmr
