// FlatTable: the engine's open-addressing hash table from fixed-width
// packed keys to dense ids.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace sharing {

/// Open-addressing hash table from fixed-width packed keys to dense ids
/// (0, 1, 2, ... in insertion order): the one table behind hash join (a
/// directory of distinct build keys), hash aggregate (group ids) and the
/// CJOIN dimension index (cjoin/dimension_table.h).
///
/// Linear probing over 8-byte slots {hash tag, id}; the tag rejects
/// nearly every mismatch without touching key storage. Keys of at most 8
/// bytes are stored and compared as one zero-padded uint64_t; wider keys
/// live in a byte arena indexed by id. The load factor stays at or below
/// 1/2; growth doubles the slots and re-places every id by rehashing its
/// stored key. Emptiness is a slot property (id == kNone), so every key
/// value, INT64_MIN included, is storable.
///
/// Hashing is Fibonacci (multiplicative): the home slot is the product's
/// top bits, the tag its low 32 bits. Dense integer keys, the common join
/// and group-by case, then land on distinct home slots, so a probe
/// almost never walks past its first slot.
class FlatTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  explicit FlatTable(std::size_t key_width)
      : key_width_(key_width), slots_(kInitialSlots, Slot{0, kNone}) {}

  std::size_t size() const { return size_; }

  /// Keys wider than one word take the byte-arena path.
  bool wide() const { return key_width_ > sizeof(uint64_t); }

  /// Packed key bytes of `id`.
  const uint8_t* key(uint32_t id) const {
    return wide() ? bytes_.data() + std::size_t(id) * key_width_
                  : reinterpret_cast<const uint8_t*>(&words_[id]);
  }

  /// Narrow keys: the id of `word`, or kNone.
  uint32_t FindWord(uint64_t word) const {
    return slots_[ProbeWord(word, HashWord(word))].id;
  }

  /// Narrow keys: the id of `word`, inserted as size() when absent.
  uint32_t FindOrInsertWord(uint64_t word) {
    const uint64_t hash = HashWord(word);
    const std::size_t pos = ProbeWord(word, hash);
    if (slots_[pos].id != kNone) return slots_[pos].id;
    words_.push_back(word);
    return Place(pos, hash);
  }

  /// Wide keys: the id of the packed key, inserted as size() when absent.
  uint32_t FindOrInsertBytes(const uint8_t* packed) {
    const uint64_t hash = HashBytes(packed);
    const std::size_t pos = Probe(hash, [&](uint32_t id) {
      return std::memcmp(key(id), packed, key_width_) == 0;
    });
    if (slots_[pos].id != kNone) return slots_[pos].id;
    bytes_.insert(bytes_.end(), packed, packed + key_width_);
    return Place(pos, hash);
  }

 private:
  struct Slot {
    uint32_t tag;
    uint32_t id;
  };
  static constexpr std::size_t kInitialSlots = 64;
  static constexpr uint64_t kFibonacci = 0x9e3779b97f4a7c15ULL;  // 2^64/phi

  static uint64_t HashWord(uint64_t word) { return word * kFibonacci; }

  /// Folds the key word by word; the rotate carries each step's high
  /// (well-mixed) bits into the next multiply's low inputs.
  uint64_t HashBytes(const uint8_t* packed) const {
    uint64_t hash = key_width_;
    for (std::size_t off = 0; off < key_width_; off += sizeof(uint64_t)) {
      uint64_t word = 0;
      std::memcpy(&word, packed + off,
                  std::min(sizeof(word), key_width_ - off));
      hash = HashWord(std::rotl(hash, 29) ^ word);
    }
    return hash;
  }

  static uint32_t Tag(uint64_t hash) { return static_cast<uint32_t>(hash); }

  std::size_t Home(uint64_t hash) const { return hash >> shift_; }

  /// The slot holding the id whose key satisfies `match`, or the empty
  /// slot where that key belongs.
  template <typename Match>
  std::size_t Probe(uint64_t hash, Match match) const {
    const uint32_t tag = Tag(hash);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t pos = Home(hash);; pos = (pos + 1) & mask) {
      const Slot& s = slots_[pos];
      if (s.id == kNone || (s.tag == tag && match(s.id))) return pos;
    }
  }

  std::size_t ProbeWord(uint64_t word, uint64_t hash) const {
    return Probe(hash, [&](uint32_t id) { return words_[id] == word; });
  }

  /// Claims empty slot `pos` for the key just appended to key storage.
  uint32_t Place(std::size_t pos, uint64_t hash) {
    SHARING_CHECK(size_ < kNone) << "flat table overflow";
    const uint32_t id = static_cast<uint32_t>(size_++);
    slots_[pos] = Slot{Tag(hash), id};
    if (2 * size_ > slots_.size()) Grow();
    return id;
  }

  void Grow() {
    slots_.assign(slots_.size() * 2, Slot{0, kNone});
    --shift_;
    const std::size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < size_; ++id) {
      const uint64_t hash =
          wide() ? HashBytes(key(id)) : HashWord(words_[id]);
      std::size_t pos = Home(hash);
      while (slots_[pos].id != kNone) pos = (pos + 1) & mask;
      slots_[pos] = Slot{Tag(hash), id};
    }
  }

  std::size_t key_width_;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
  int shift_ = 64 - std::countr_zero(kInitialSlots);  // 64 - log2(slots)
  std::vector<uint64_t> words_;  // narrow keys, by id
  std::vector<uint8_t> bytes_;   // wide keys, key_width_ bytes per id
};

}  // namespace sharing
