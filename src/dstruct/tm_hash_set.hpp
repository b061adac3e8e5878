// Transactional chained hash set — the Figure-5 "hash" microbenchmark
// (8-bit keys over 256 buckets: transactions mostly touch disjoint state,
// so conflicts are rare and quiescence overhead dominates).
#pragma once

#include <climits>
#include <memory>

#include "tm/api.hpp"

namespace tle {

class TmHashSet {
 public:
  explicit TmHashSet(std::size_t buckets = 256)
      : nbuckets_(buckets ? buckets : 1),
        heads_(new Node*[nbuckets_]) {
    for (std::size_t i = 0; i < nbuckets_; ++i)
      heads_[i] = new Node(LONG_MIN);
  }

  ~TmHashSet() {
    for (std::size_t i = 0; i < nbuckets_; ++i) {
      Node* n = heads_[i];
      while (n) {
        Node* next = n->next.unsafe_get();
        // Routed delete: see TmListSet::~TmListSet().
        tm_private_delete(n);
        n = next;
      }
    }
  }

  TmHashSet(const TmHashSet&) = delete;
  TmHashSet& operator=(const TmHashSet&) = delete;

  bool insert(long key) {
    bool added = false;
    Node* head = bucket(key);
    atomic_do([&](TxContext& tx) {
      added = false;
      tx.no_quiesce();
      Node* prev = head;
      Node* cur = tx.read(prev->next);
      while (cur && cur->key < key) {
        prev = cur;
        cur = tx.read(cur->next);
      }
      if (cur && cur->key == key) return;
      Node* fresh = tx.create<Node>(key);
      fresh->next.unsafe_set(cur);
      tx.write(prev->next, fresh);
      added = true;
    });
    return added;
  }

  bool remove(long key) {
    bool removed = false;
    Node* head = bucket(key);
    atomic_do([&](TxContext& tx) {
      removed = false;
      tx.no_quiesce();  // the freed node's grace period is limbo's job
      Node* prev = head;
      Node* cur = tx.read(prev->next);
      while (cur && cur->key < key) {
        prev = cur;
        cur = tx.read(cur->next);
      }
      if (!cur || cur->key != key) return;
      tx.write(prev->next, tx.read(cur->next));
      tx.destroy(cur);
      removed = true;
    });
    return removed;
  }

  bool contains(long key) const {
    bool found = false;
    Node* head = bucket(key);
    atomic_do([&](TxContext& tx) {
      tx.no_quiesce();
      Node* cur = tx.read(head->next);
      while (cur && cur->key < key) cur = tx.read(cur->next);
      found = cur && cur->key == key;
    });
    return found;
  }

  std::size_t size_unsafe() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < nbuckets_; ++i)
      for (Node* cur = heads_[i]->next.unsafe_get(); cur;
           cur = cur->next.unsafe_get())
        ++n;
    return n;
  }

 private:
  struct Node {
    long key;
    tm_var<Node*> next;

    explicit Node(long k) : key(k) {}
  };

  Node* bucket(long key) const noexcept {
    const auto h = static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
    return heads_[(h >> 32) % nbuckets_];
  }

  std::size_t nbuckets_;
  std::unique_ptr<Node*[]> heads_;
};

}  // namespace tle
