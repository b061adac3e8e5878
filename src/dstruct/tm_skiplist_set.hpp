// Transactional skip-list set — an extension series for the Figure-5
// microbenchmarks (skip lists are the other classic TM set structure, with
// list-like traversal conflicts but logarithmic depth).
//
// Tower heights derive from a hash of the key, so the structure shape is a
// pure function of the key set — deterministic across thread schedules and
// convenient for validation.
#pragma once

#include <climits>

#include "tm/api.hpp"
#include "util/rng.hpp"

namespace tle {

class TmSkipListSet {
 public:
  static constexpr int kMaxLevel = 12;

  TmSkipListSet() { head_ = new Node(LONG_MIN, kMaxLevel); }

  ~TmSkipListSet() {
    Node* n = head_;
    while (n) {
      Node* next = n->next[0].unsafe_get();
      // Routed delete: see TmListSet::~TmListSet().
      tm_private_delete(n);
      n = next;
    }
  }

  TmSkipListSet(const TmSkipListSet&) = delete;
  TmSkipListSet& operator=(const TmSkipListSet&) = delete;

  bool insert(long key) {
    bool added = false;
    atomic_do([&](TxContext& tx) {
      added = false;
      tx.no_quiesce();  // publication only
      Node* preds[kMaxLevel];
      Node* found = search(tx, key, preds);
      if (found) return;
      const int h = height_for(key);
      Node* fresh = tx.create<Node>(key, h);
      for (int lv = 0; lv < h; ++lv) {
        // Private until the level-0 link publishes; set pointers bottom-up.
        fresh->next[lv].unsafe_set(tx.read(preds[lv]->next[lv]));
      }
      for (int lv = 0; lv < h; ++lv) tx.write(preds[lv]->next[lv], fresh);
      added = true;
    });
    return added;
  }

  bool remove(long key) {
    bool removed = false;
    atomic_do([&](TxContext& tx) {
      removed = false;
      tx.no_quiesce();  // the freed node's grace period is limbo's job
      Node* preds[kMaxLevel];
      Node* victim = search(tx, key, preds);
      if (!victim) return;
      for (int lv = 0; lv < victim->height; ++lv) {
        if (tx.read(preds[lv]->next[lv]) == victim)
          tx.write(preds[lv]->next[lv], tx.read(victim->next[lv]));
      }
      tx.destroy(victim);  // released from limbo once no reader can hold it
      removed = true;
    });
    return removed;
  }

  bool contains(long key) const {
    bool found = false;
    atomic_do([&](TxContext& tx) {
      tx.no_quiesce();
      Node* preds[kMaxLevel];
      found = const_cast<TmSkipListSet*>(this)->search(tx, key, preds) != nullptr;
    });
    return found;
  }

  std::size_t size_unsafe() const {
    std::size_t n = 0;
    for (Node* cur = head_->next[0].unsafe_get(); cur;
         cur = cur->next[0].unsafe_get())
      ++n;
    return n;
  }

  /// Test hook: level-0 sortedness plus every upper level being a
  /// subsequence of level 0 with correct heights.
  bool valid_unsafe() const {
    long last = LONG_MIN;
    for (Node* cur = head_->next[0].unsafe_get(); cur;
         cur = cur->next[0].unsafe_get()) {
      if (cur->key <= last) return false;
      last = cur->key;
      if (cur->height < 1 || cur->height > kMaxLevel) return false;
      if (cur->height != height_for(cur->key)) return false;
    }
    for (int lv = 1; lv < kMaxLevel; ++lv) {
      long prev = LONG_MIN;
      for (Node* cur = head_->next[lv].unsafe_get(); cur;
           cur = cur->next[lv].unsafe_get()) {
        if (cur->key <= prev || cur->height <= lv) return false;
        prev = cur->key;
      }
    }
    return true;
  }

 private:
  struct Node {
    long key;
    int height;
    tm_var<Node*> next[kMaxLevel];

    Node(long k, int h) : key(k), height(h) {}
  };

  /// Deterministic geometric height from the key's hash.
  static int height_for(long key) {
    std::uint64_t h =
        static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL + 0x1234567;
    h ^= h >> 29;
    int lvl = 1;
    while ((h & 1) && lvl < kMaxLevel) {
      ++lvl;
      h >>= 1;
    }
    return lvl;
  }

  /// Top-down search filling per-level predecessors; returns the node with
  /// `key` if present.
  Node* search(TxContext& tx, long key, Node* preds[kMaxLevel]) {
    Node* pred = head_;
    Node* found = nullptr;
    for (int lv = kMaxLevel - 1; lv >= 0; --lv) {
      Node* cur = tx.read(pred->next[lv]);
      while (cur && cur->key < key) {
        pred = cur;
        cur = tx.read(cur->next[lv]);
      }
      preds[lv] = pred;
      if (cur && cur->key == key) found = cur;
    }
    return found;
  }

  Node* head_;
};

}  // namespace tle
