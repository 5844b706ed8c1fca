#include "baselines/lru_cache.h"

#include "util/check.h"

namespace mmr {

LruCache::LruCache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

void LruCache::link_front(ObjectId key) {
  Node& n = nodes_[key];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = key;
  } else {
    tail_ = key;
  }
  head_ = key;
}

void LruCache::unlink(ObjectId key) {
  const Node& n = nodes_[key];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

bool LruCache::access(ObjectId key) {
  if (!present(key)) {
    ++misses_;
    return false;
  }
  ++hits_;
  if (head_ != key) {
    unlink(key);
    link_front(key);
  }
  return true;
}

bool LruCache::contains(ObjectId key) const { return present(key); }

void LruCache::evict_for(std::uint64_t bytes) {
  while (used_ + bytes > capacity_) {
    MMR_DCHECK(tail_ != kNil);
    const std::uint32_t victim = tail_;
    unlink(victim);
    used_ -= nodes_[victim].bytes;
    nodes_[victim].bytes = kAbsent;
    --size_;
    ++evictions_;
  }
}

bool LruCache::insert(ObjectId key, std::uint64_t bytes) {
  if (bytes > capacity_) return false;
  MMR_DCHECK(bytes != kAbsent && key != kNil);
  if (present(key)) {
    // Refresh; sizes are immutable per object so bytes must match.
    MMR_DCHECK(nodes_[key].bytes == bytes);
    if (head_ != key) {
      unlink(key);
      link_front(key);
    }
    return true;
  }
  evict_for(bytes);
  if (key >= nodes_.size()) nodes_.resize(static_cast<std::size_t>(key) + 1);
  nodes_[key].bytes = bytes;
  link_front(key);
  used_ += bytes;
  ++size_;
  return true;
}

bool LruCache::erase(ObjectId key) {
  if (!present(key)) return false;
  unlink(key);
  used_ -= nodes_[key].bytes;
  nodes_[key].bytes = kAbsent;
  --size_;
  return true;
}

}  // namespace mmr
