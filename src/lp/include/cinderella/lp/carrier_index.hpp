// Pooled index from keys to the rows that carry them, shared by the
// simplex tableau (column -> rows with a nonzero in it) and presolve
// (variable -> rows it occurs in).
//
// One pool of links holds one singly linked list per key, newest link
// first, so the index costs two ints per entry and no allocation per
// key.  Links are only ever added (when a row combination fills in a new
// entry); a link goes stale when its row loses the key, and is unlinked
// when a walk reads it rather than eagerly.  A row that loses a key and
// regains it by fill-in is linked twice; the walk visits it once.
#pragma once

#include <cstddef>
#include <vector>

namespace cinderella::lp {

class CarrierIndex {
 public:
  /// Empties the index for keys [0, keys) over rows [0, rows).
  void reset(int keys, int rows) {
    head_.assign(static_cast<std::size_t>(keys), -1);
    pool_.clear();
    seen_.assign(static_cast<std::size_t>(rows), 0);
    walk_ = 0;
  }

  /// Extends the index to keys [0, keys) over rows [0, rows).
  void grow(int keys, int rows) {
    head_.resize(static_cast<std::size_t>(keys), -1);
    seen_.resize(static_cast<std::size_t>(rows), 0);
  }

  void reserve(std::size_t links) { pool_.reserve(links); }

  /// Links `row` at the front of `key`'s list.
  void add(int key, int row) {
    int& head = head_[static_cast<std::size_t>(key)];
    pool_.push_back(Link{row, head});
    head = static_cast<int>(pool_.size()) - 1;
  }

  /// Calls `carries(row)` once for every row on `key`'s list, newest
  /// link first.  A link for which it returns false (the row no longer
  /// carries the key), or that repeats a row already visited by this
  /// walk, is unlinked.
  template <typename Carries>
  void walk(int key, Carries carries) {
    ++walk_;
    for (int* link = &head_[static_cast<std::size_t>(key)]; *link >= 0;) {
      Link& e = pool_[static_cast<std::size_t>(*link)];
      int& seen = seen_[static_cast<std::size_t>(e.row)];
      if (seen == walk_ || !carries(e.row)) {
        *link = e.next;
        continue;
      }
      seen = walk_;
      link = &e.next;
    }
  }

  /// Links in the pool, unlinked ones included.
  [[nodiscard]] std::size_t pooledLinks() const { return pool_.size(); }

  /// Links currently on `key`'s list, stale ones included.
  [[nodiscard]] int listLength(int key) const {
    int count = 0;
    for (int link = head_[static_cast<std::size_t>(key)]; link >= 0;
         link = pool_[static_cast<std::size_t>(link)].next) {
      ++count;
    }
    return count;
  }

 private:
  struct Link {
    int row = 0;
    int next = -1;
  };
  std::vector<Link> pool_;
  /// First link of each key's list (-1 = empty).
  std::vector<int> head_;
  /// Per-row number of the last walk that visited it.
  std::vector<int> seen_;
  int walk_ = 0;
};

}  // namespace cinderella::lp
