// Transactional sorted linked-list set — the Figure-5 "list" microbenchmark
// (6-bit keys, high structural contention: every traversal reads the same
// prefix).
//
// TM_NoQuiesce placement (the paper's SelectNoQ configuration): every
// operation requests it. insert and contains never privatize; a remove
// privatizes only the node it frees, and the runtime parks that node in
// limbo until every transaction that could still read it has ended, so the
// commit itself need not wait.
#pragma once

#include <climits>

#include "tm/api.hpp"

namespace tle {

class TmListSet {
 public:
  TmListSet() {
    // Sentinel head simplifies edge cases; never removed.
    head_ = new Node(LONG_MIN);
  }

  ~TmListSet() {
    // Routed delete: teardown usually runs single-threaded (predicate false,
    // immediate free), but a straggling simulated-HTM reader keeps these
    // nodes alive through limbo instead of racing the destructor.
    Node* n = head_;
    while (n) {
      Node* next = n->next.unsafe_get();
      tm_private_delete(n);
      n = next;
    }
  }

  TmListSet(const TmListSet&) = delete;
  TmListSet& operator=(const TmListSet&) = delete;

  /// Insert `key`; returns false if already present.
  bool insert(long key) {
    bool added = false;
    atomic_do([&](TxContext& tx) {
      added = false;
      tx.no_quiesce();
      Node* prev = head_;
      Node* cur = tx.read(prev->next);
      while (cur && cur->key < key) {
        prev = cur;
        cur = tx.read(cur->next);
      }
      if (cur && cur->key == key) return;
      Node* fresh = tx.create<Node>(key);
      fresh->next.unsafe_set(cur);  // node is private until linked
      tx.write(prev->next, fresh);
      added = true;
    });
    return added;
  }

  /// Remove `key`; returns false if absent.
  bool remove(long key) {
    bool removed = false;
    atomic_do([&](TxContext& tx) {
      removed = false;
      tx.no_quiesce();  // the freed node's grace period is limbo's job
      Node* prev = head_;
      Node* cur = tx.read(prev->next);
      while (cur && cur->key < key) {
        prev = cur;
        cur = tx.read(cur->next);
      }
      if (!cur || cur->key != key) return;
      tx.write(prev->next, tx.read(cur->next));
      tx.destroy(cur);  // released from limbo once no reader can hold it
      removed = true;
    });
    return removed;
  }

  /// Membership test.
  bool contains(long key) const {
    bool found = false;
    atomic_do([&](TxContext& tx) {
      tx.no_quiesce();
      Node* cur = tx.read(head_->next);
      while (cur && cur->key < key) cur = tx.read(cur->next);
      found = cur && cur->key == key;
    });
    return found;
  }

  /// Non-transactional size walk — only valid while no transactions run.
  std::size_t size_unsafe() const {
    std::size_t n = 0;
    for (Node* cur = head_->next.unsafe_get(); cur;
         cur = cur->next.unsafe_get())
      ++n;
    return n;
  }

  /// Non-transactional sortedness check (test hook).
  bool sorted_unsafe() const {
    long last = LONG_MIN;
    for (Node* cur = head_->next.unsafe_get(); cur;
         cur = cur->next.unsafe_get()) {
      if (cur->key <= last) return false;
      last = cur->key;
    }
    return true;
  }

 private:
  struct Node {
    long key;
    tm_var<Node*> next;

    explicit Node(long k) : key(k) {}
  };

  Node* head_;
};

}  // namespace tle
