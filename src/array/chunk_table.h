// ChunkTable: the one keyed, ordered chunk container. Array stores its
// chunks in one and Cluster its placement records; both key entries by
// chunk-grid coordinates.
//
// Entries live in a slab in insertion order; an entry's id is its slab index
// and never changes, because entries are never removed. Two structures index
// the slab by id:
//   * an open-addressing hash index from coordinates to id. Each 8-byte slot
//     holds the id plus the upper 32 bits of the key's CoordinatesHash; the
//     key itself is read through the entry (`Key`, e.g. &Chunk::coords), so
//     no coordinate vector is stored twice. It serves Find and the
//     duplicate check of FindOrInsert.
//   * the ids in lexicographic key order, serving every enumeration
//     (iteration and the box walk) without a sort.
// Both structures refer to entries by id rather than by pointer, so a copied
// table is independent of the original.
//
// An insertion costs one hash probe plus a binary search and a shift of the
// ordered ids after the insertion point. Arrays grow in time order along
// dimension 0 (every workload ingests time-major), so new chunks land at or
// near the tail and the shift is short; a key past the last stored one is
// appended without a search, and a key older than everything stored shifts
// the whole id vector.
//
// Pointers and references to entries are invalidated by the next insertion
// (the slab may reallocate). Const member functions only read, so any number
// of threads may read one table while nobody inserts.

#ifndef ARRAYDB_ARRAY_CHUNK_TABLE_H_
#define ARRAYDB_ARRAY_CHUNK_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "array/coordinates.h"
#include "util/logging.h"

namespace arraydb::array {

/// `Key` is a member pointer (data or const function) yielding an entry's
/// `const Coordinates&` key.
template <typename Entry, auto Key>
class ChunkTable {
 public:
  /// Walks the entries in lexicographic key order, yielding (key, entry)
  /// reference pairs.
  class const_iterator {
   public:
    std::pair<const Coordinates&, const Entry&> operator*() const {
      const Entry& entry = (*slab_)[*id_];
      return {KeyOf(entry), entry};
    }
    const_iterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return id_ == other.id_;
    }

   private:
    friend class ChunkTable;
    const_iterator(const std::vector<Entry>* slab,
                   std::vector<uint32_t>::const_iterator id)
        : slab_(slab), id_(id) {}

    const std::vector<Entry>* slab_;
    std::vector<uint32_t>::const_iterator id_;
  };

  size_t size() const { return slab_.size(); }

  /// Slots of the coordinate index (8 bytes each).
  size_t bucket_count() const { return index_.size(); }

  const_iterator begin() const { return {&slab_, ordered_.begin()}; }
  const_iterator end() const { return {&slab_, ordered_.end()}; }

  /// The entry keyed `key`, or nullptr.
  const Entry* Find(const Coordinates& key) const {
    const uint32_t id = FindId(key, CoordinatesHash()(key));
    return id == kNoId ? nullptr : &slab_[id];
  }
  Entry* Find(const Coordinates& key) {
    return const_cast<Entry*>(std::as_const(*this).Find(key));
  }

  /// Returns the entry keyed `key` and false when one is stored; otherwise
  /// appends `make()`, whose key must equal `key`, and returns it and true.
  /// `key` must not refer into this table.
  template <typename Make>
  std::pair<Entry*, bool> FindOrInsert(const Coordinates& key, Make&& make) {
    const uint64_t hash = CoordinatesHash()(key);
    if (const uint32_t found = FindId(key, hash); found != kNoId) {
      return {&slab_[found], false};
    }
    ARRAYDB_CHECK_LT(slab_.size(), size_t{kNoId});
    const auto id = static_cast<uint32_t>(slab_.size());
    slab_.push_back(std::forward<Make>(make)());
    ARRAYDB_CHECK(KeyOf(slab_.back()) == key);
    IndexInsert(id, hash);
    // Time-major ingest appends past the last key; anything else shifts the
    // ids after its lexicographic position.
    auto pos = ordered_.end();
    if (!ordered_.empty() && key < KeyOf(slab_[ordered_.back()])) {
      pos = std::lower_bound(ordered_.begin(), ordered_.end(), key,
                             [this](uint32_t other, const Coordinates& k) {
                               return KeyOf(slab_[other]) < k;
                             });
    }
    ordered_.insert(pos, id);
    return {&slab_.back(), true};
  }

  /// Invokes `fn(entry)` for every entry whose key lies in the inclusive
  /// box [lo, hi], in lexicographic key order: key c is inside when
  /// lo[d] <= c[d] <= hi[d] for every dimension d a bound has an entry for,
  /// so an empty bound leaves its side open. The walk starts at the first
  /// key not below `lo` and stops once dimension 0 passes hi[0]; an
  /// inverted box visits nothing.
  template <typename Fn>
  void ForEachInBox(const Coordinates& lo, const Coordinates& hi,
                    Fn&& fn) const {
    auto it = std::lower_bound(ordered_.begin(), ordered_.end(), lo,
                               [this](uint32_t id, const Coordinates& key) {
                                 return KeyOf(slab_[id]) < key;
                               });
    for (; it != ordered_.end(); ++it) {
      const Entry& entry = slab_[*it];
      const Coordinates& c = KeyOf(entry);
      if (!hi.empty() && !c.empty() && c[0] > hi[0]) break;
      bool inside = true;
      for (size_t d = 0; d < lo.size() && d < c.size() && inside; ++d) {
        inside = c[d] >= lo[d];
      }
      for (size_t d = 0; d < hi.size() && d < c.size() && inside; ++d) {
        inside = c[d] <= hi[d];
      }
      if (inside) fn(entry);
    }
  }

 private:
  static const Coordinates& KeyOf(const Entry& entry) {
    return std::invoke(Key, entry);
  }

  static constexpr uint32_t kNoId = UINT32_MAX;
  // An index slot holds (hash >> 32) << 32 | id, or kEmptySlot.
  static constexpr uint64_t kEmptySlot = UINT64_MAX;

  // Id of the entry keyed `key` (whose CoordinatesHash is `hash`), or kNoId.
  uint32_t FindId(const Coordinates& key, uint64_t hash) const {
    if (index_.empty()) return kNoId;
    const size_t mask = index_.size() - 1;
    const uint64_t tag = hash >> 32;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint64_t slot = index_[i];
      if (slot == kEmptySlot) return kNoId;
      const auto id = static_cast<uint32_t>(slot);
      if ((slot >> 32) == tag && KeyOf(slab_[id]) == key) return id;
    }
  }

  // Adds `id` to the hash index, growing it to keep the load at most 1/2.
  void IndexInsert(uint32_t id, uint64_t hash) {
    const auto place = [this](uint32_t slot_id, uint64_t h) {
      const size_t mask = index_.size() - 1;
      size_t i = h & mask;
      while (index_[i] != kEmptySlot) i = (i + 1) & mask;
      index_[i] = (h >> 32) << 32 | slot_id;
    };
    if (2 * (static_cast<size_t>(id) + 1) > index_.size()) {
      index_.assign(std::max<size_t>(16, 2 * index_.size()), kEmptySlot);
      for (uint32_t old = 0; old < id; ++old) {
        place(old, CoordinatesHash()(KeyOf(slab_[old])));
      }
    }
    place(id, hash);
  }

  std::vector<Entry> slab_;
  std::vector<uint32_t> ordered_;
  std::vector<uint64_t> index_;
};

}  // namespace arraydb::array

#endif  // ARRAYDB_ARRAY_CHUNK_TABLE_H_
