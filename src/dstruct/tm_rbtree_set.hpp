// Transactional red-black tree set — the Figure-5 "tree" microbenchmark
// (8-bit keys; conflicts concentrate near the root, and rebalancing makes
// transactions larger than hash/list operations).
//
// The algorithm is the classic CLRS red-black tree with a nil sentinel,
// with every shared field access routed through the transaction context.
// The sentinel's parent pointer is written during deletes (as in CLRS),
// which transactionally conflicts across concurrent removals — a real
// behaviour of coarse transactional trees that the benchmark should keep.
#pragma once

#include "tm/api.hpp"

namespace tle {

class TmRbTreeSet {
 public:
  TmRbTreeSet() {
    nil_ = new Node(0);
    nil_->parent.unsafe_set(nil_);
    nil_->left.unsafe_set(nil_);
    nil_->right.unsafe_set(nil_);
    root_.unsafe_set(nil_);
  }

  ~TmRbTreeSet() {
    free_subtree(root_.unsafe_get());
    tm_private_delete(nil_);  // routed delete: see TmListSet::~TmListSet()
  }

  TmRbTreeSet(const TmRbTreeSet&) = delete;
  TmRbTreeSet& operator=(const TmRbTreeSet&) = delete;

  bool insert(long key) {
    bool added = false;
    atomic_do([&](TxContext& tx) {
      added = false;
      tx.no_quiesce();
      Node* y = nil_;
      Node* x = tx.read(root_);
      while (x != nil_) {
        y = x;
        if (key == x->key) return;  // already present
        x = key < x->key ? tx.read(x->left) : tx.read(x->right);
      }
      Node* z = tx.create<Node>(key);
      z->red.unsafe_set(true);  // private until linked below
      z->parent.unsafe_set(y);
      z->left.unsafe_set(nil_);
      z->right.unsafe_set(nil_);
      if (y == nil_)
        tx.write(root_, z);
      else if (key < y->key)
        tx.write(y->left, z);
      else
        tx.write(y->right, z);
      insert_fixup(tx, z);
      added = true;
    });
    return added;
  }

  bool remove(long key) {
    bool removed = false;
    atomic_do([&](TxContext& tx) {
      removed = false;
      tx.no_quiesce();  // the freed node's grace period is limbo's job
      Node* z = tx.read(root_);
      while (z != nil_ && z->key != key)
        z = key < z->key ? tx.read(z->left) : tx.read(z->right);
      if (z == nil_) return;
      erase_node(tx, z);
      tx.destroy(z);  // released from limbo once no reader can hold it
      removed = true;
    });
    return removed;
  }

  bool contains(long key) const {
    bool found = false;
    atomic_do([&](TxContext& tx) {
      tx.no_quiesce();
      Node* x = tx.read(root_);
      while (x != nil_ && x->key != key)
        x = key < x->key ? tx.read(x->left) : tx.read(x->right);
      found = x != nil_;
    });
    return found;
  }

  std::size_t size_unsafe() const { return count_subtree(root_.unsafe_get()); }

  /// Structural validation (test hook; call only while quiescent).
  /// Checks BST order, red-red absence, and black-height balance.
  bool valid_unsafe() const {
    long lo = 0, hi = 0;
    return black_height(root_.unsafe_get(), &lo, &hi) >= 0 &&
           !root_.unsafe_get()->red.unsafe_get();
  }

 private:
  struct Node {
    long key;
    tm_var<bool> red;
    tm_var<Node*> parent;
    tm_var<Node*> left;
    tm_var<Node*> right;

    explicit Node(long k) : key(k) {}
  };

  // --- transactional helpers (CLRS) --------------------------------------

  void left_rotate(TxContext& tx, Node* x) {
    Node* y = tx.read(x->right);
    Node* yl = tx.read(y->left);
    tx.write(x->right, yl);
    if (yl != nil_) tx.write(yl->parent, x);
    Node* xp = tx.read(x->parent);
    tx.write(y->parent, xp);
    if (xp == nil_)
      tx.write(root_, y);
    else if (x == tx.read(xp->left))
      tx.write(xp->left, y);
    else
      tx.write(xp->right, y);
    tx.write(y->left, x);
    tx.write(x->parent, y);
  }

  void right_rotate(TxContext& tx, Node* x) {
    Node* y = tx.read(x->left);
    Node* yr = tx.read(y->right);
    tx.write(x->left, yr);
    if (yr != nil_) tx.write(yr->parent, x);
    Node* xp = tx.read(x->parent);
    tx.write(y->parent, xp);
    if (xp == nil_)
      tx.write(root_, y);
    else if (x == tx.read(xp->right))
      tx.write(xp->right, y);
    else
      tx.write(xp->left, y);
    tx.write(y->right, x);
    tx.write(x->parent, y);
  }

  void insert_fixup(TxContext& tx, Node* z) {
    while (true) {
      Node* zp = tx.read(z->parent);
      if (!tx.read(zp->red)) break;
      Node* zpp = tx.read(zp->parent);
      if (zp == tx.read(zpp->left)) {
        Node* y = tx.read(zpp->right);  // uncle
        if (tx.read(y->red)) {
          tx.write(zp->red, false);
          tx.write(y->red, false);
          tx.write(zpp->red, true);
          z = zpp;
        } else {
          if (z == tx.read(zp->right)) {
            z = zp;
            left_rotate(tx, z);
            zp = tx.read(z->parent);
            zpp = tx.read(zp->parent);
          }
          tx.write(zp->red, false);
          tx.write(zpp->red, true);
          right_rotate(tx, zpp);
        }
      } else {
        Node* y = tx.read(zpp->left);
        if (tx.read(y->red)) {
          tx.write(zp->red, false);
          tx.write(y->red, false);
          tx.write(zpp->red, true);
          z = zpp;
        } else {
          if (z == tx.read(zp->left)) {
            z = zp;
            right_rotate(tx, z);
            zp = tx.read(z->parent);
            zpp = tx.read(zp->parent);
          }
          tx.write(zp->red, false);
          tx.write(zpp->red, true);
          left_rotate(tx, zpp);
        }
      }
    }
    Node* root = tx.read(root_);
    if (tx.read(root->red)) tx.write(root->red, false);
  }

  void transplant(TxContext& tx, Node* u, Node* v) {
    Node* up = tx.read(u->parent);
    if (up == nil_)
      tx.write(root_, v);
    else if (u == tx.read(up->left))
      tx.write(up->left, v);
    else
      tx.write(up->right, v);
    tx.write(v->parent, up);  // may write nil_->parent, as in CLRS
  }

  Node* subtree_min(TxContext& tx, Node* x) {
    for (Node* l = tx.read(x->left); l != nil_; l = tx.read(x->left)) x = l;
    return x;
  }

  void erase_node(TxContext& tx, Node* z) {
    Node* y = z;
    bool y_was_red = tx.read(y->red);
    Node* x;
    if (tx.read(z->left) == nil_) {
      x = tx.read(z->right);
      transplant(tx, z, x);
    } else if (tx.read(z->right) == nil_) {
      x = tx.read(z->left);
      transplant(tx, z, x);
    } else {
      y = subtree_min(tx, tx.read(z->right));
      y_was_red = tx.read(y->red);
      x = tx.read(y->right);
      if (tx.read(y->parent) == z) {
        tx.write(x->parent, y);
      } else {
        transplant(tx, y, x);
        Node* zr = tx.read(z->right);
        tx.write(y->right, zr);
        tx.write(zr->parent, y);
      }
      transplant(tx, z, y);
      Node* zl = tx.read(z->left);
      tx.write(y->left, zl);
      tx.write(zl->parent, y);
      tx.write(y->red, tx.read(z->red));
    }
    if (!y_was_red) delete_fixup(tx, x);
  }

  void delete_fixup(TxContext& tx, Node* x) {
    while (x != tx.read(root_) && !tx.read(x->red)) {
      Node* xp = tx.read(x->parent);
      if (x == tx.read(xp->left)) {
        Node* w = tx.read(xp->right);
        if (tx.read(w->red)) {
          tx.write(w->red, false);
          tx.write(xp->red, true);
          left_rotate(tx, xp);
          w = tx.read(xp->right);
        }
        if (!tx.read(tx.read(w->left)->red) &&
            !tx.read(tx.read(w->right)->red)) {
          tx.write(w->red, true);
          x = xp;
        } else {
          if (!tx.read(tx.read(w->right)->red)) {
            tx.write(tx.read(w->left)->red, false);
            tx.write(w->red, true);
            right_rotate(tx, w);
            w = tx.read(xp->right);
          }
          tx.write(w->red, tx.read(xp->red));
          tx.write(xp->red, false);
          tx.write(tx.read(w->right)->red, false);
          left_rotate(tx, xp);
          x = tx.read(root_);
        }
      } else {
        Node* w = tx.read(xp->left);
        if (tx.read(w->red)) {
          tx.write(w->red, false);
          tx.write(xp->red, true);
          right_rotate(tx, xp);
          w = tx.read(xp->left);
        }
        if (!tx.read(tx.read(w->right)->red) &&
            !tx.read(tx.read(w->left)->red)) {
          tx.write(w->red, true);
          x = xp;
        } else {
          if (!tx.read(tx.read(w->left)->red)) {
            tx.write(tx.read(w->right)->red, false);
            tx.write(w->red, true);
            left_rotate(tx, w);
            w = tx.read(xp->left);
          }
          tx.write(w->red, tx.read(xp->red));
          tx.write(xp->red, false);
          tx.write(tx.read(w->left)->red, false);
          right_rotate(tx, xp);
          x = tx.read(root_);
        }
      }
    }
    if (tx.read(x->red)) tx.write(x->red, false);
  }

  // --- non-transactional helpers ------------------------------------------

  void free_subtree(Node* n) {
    if (n == nil_ || n == nullptr) return;
    free_subtree(n->left.unsafe_get());
    free_subtree(n->right.unsafe_get());
    tm_private_delete(n);  // routed delete: see TmListSet::~TmListSet()
  }

  std::size_t count_subtree(Node* n) const {
    if (n == nil_) return 0;
    return 1 + count_subtree(n->left.unsafe_get()) +
           count_subtree(n->right.unsafe_get());
  }

  /// Returns the black-height of `n`, or -1 if any invariant fails.
  /// `lo`/`hi` receive the subtree's key range for BST checking.
  long black_height(Node* n, long* lo, long* hi) const {
    if (n == nil_) {
      *lo = *hi = 0;
      return 1;
    }
    long llo = 0, lhi = 0, rlo = 0, rhi = 0;
    const long bl = black_height(n->left.unsafe_get(), &llo, &lhi);
    const long br = black_height(n->right.unsafe_get(), &rlo, &rhi);
    if (bl < 0 || br < 0 || bl != br) return -1;
    // BST ordering.
    if (n->left.unsafe_get() != nil_ && lhi >= n->key) return -1;
    if (n->right.unsafe_get() != nil_ && rlo <= n->key) return -1;
    const bool red = n->red.unsafe_get();
    if (red) {
      if (n->left.unsafe_get()->red.unsafe_get() ||
          n->right.unsafe_get()->red.unsafe_get())
        return -1;  // red-red violation
    }
    *lo = n->left.unsafe_get() != nil_ ? llo : n->key;
    *hi = n->right.unsafe_get() != nil_ ? rhi : n->key;
    return bl + (red ? 0 : 1);
  }

  Node* nil_;
  tm_var<Node*> root_;
};

}  // namespace tle
