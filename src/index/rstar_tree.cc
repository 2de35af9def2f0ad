#include "index/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

namespace qarm {

RStarRect RStarRect::FromRanges(
    const std::vector<std::pair<double, double>>& r) {
  QARM_CHECK_LE(r.size(), kRStarMaxDims);
  RStarRect rect;
  for (size_t d = 0; d < r.size(); ++d) {
    rect.lo[d] = r[d].first;
    rect.hi[d] = r[d].second;
  }
  return rect;
}

namespace {

double Area(const RStarRect& r, size_t dims) {
  double area = 1.0;
  for (size_t d = 0; d < dims; ++d) area *= r.hi[d] - r.lo[d];
  return area;
}

double Margin(const RStarRect& r, size_t dims) {
  double margin = 0.0;
  for (size_t d = 0; d < dims; ++d) margin += r.hi[d] - r.lo[d];
  return margin;
}

RStarRect Union(const RStarRect& a, const RStarRect& b, size_t dims) {
  RStarRect out;
  for (size_t d = 0; d < dims; ++d) {
    out.lo[d] = std::min(a.lo[d], b.lo[d]);
    out.hi[d] = std::max(a.hi[d], b.hi[d]);
  }
  return out;
}

double OverlapArea(const RStarRect& a, const RStarRect& b, size_t dims) {
  double area = 1.0;
  for (size_t d = 0; d < dims; ++d) {
    double lo = std::max(a.lo[d], b.lo[d]);
    double hi = std::min(a.hi[d], b.hi[d]);
    if (hi <= lo) return 0.0;
    area *= hi - lo;
  }
  return area;
}

}  // namespace

struct RStarTree::Entry {
  RStarRect mbr;
  std::unique_ptr<Node> child;  // null for data entries
  int32_t id = -1;
};

struct RStarTree::Node {
  int level = 0;  // 0 = leaf
  std::vector<Entry> entries;

  RStarRect ComputeMbr(size_t dims) const {
    QARM_CHECK(!entries.empty());
    RStarRect mbr = entries[0].mbr;
    for (size_t i = 1; i < entries.size(); ++i) {
      mbr = Union(mbr, entries[i].mbr, dims);
    }
    return mbr;
  }
};

RStarTree::RStarTree(size_t dims, size_t max_entries)
    : dims_(dims),
      max_entries_(max_entries),
      min_entries_(std::max<size_t>(2, max_entries * 2 / 5)),
      root_(std::make_unique<Node>()) {
  QARM_CHECK_GT(dims_, 0u);
  QARM_CHECK_LE(dims_, kRStarMaxDims);
  QARM_CHECK_GE(max_entries_, 4u);
}

RStarTree::~RStarTree() = default;

size_t RStarTree::height() const {
  return static_cast<size_t>(root_->level) + 1;
}

void RStarTree::Insert(const RStarRect& rect, int32_t id) {
  Entry entry;
  entry.mbr = rect;
  entry.id = id;
  InsertEntry(std::move(entry), /*level=*/0, /*allow_reinsert=*/true);
  ++size_;
}

RStarTree::Node* RStarTree::ChooseSubtree(const RStarRect& rect,
                                          int target_level,
                                          std::vector<Node*>* path) {
  Node* node = root_.get();
  path->push_back(node);
  while (node->level != target_level) {
    QARM_CHECK_GT(node->level, target_level);
    const bool children_are_leaves = node->level == target_level + 1;
    size_t best = 0;
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node->entries.size(); ++i) {
      const RStarRect& mbr = node->entries[i].mbr;
      RStarRect enlarged = Union(mbr, rect, dims_);
      double area = Area(mbr, dims_);
      double enlarge = Area(enlarged, dims_) - area;
      double overlap_delta = 0.0;
      if (children_are_leaves) {
        // Overlap enlargement against sibling MBRs.
        for (size_t j = 0; j < node->entries.size(); ++j) {
          if (j == i) continue;
          overlap_delta +=
              OverlapArea(enlarged, node->entries[j].mbr, dims_) -
              OverlapArea(mbr, node->entries[j].mbr, dims_);
        }
      }
      bool better;
      if (children_are_leaves) {
        better = overlap_delta < best_overlap ||
                 (overlap_delta == best_overlap &&
                  (enlarge < best_enlarge ||
                   (enlarge == best_enlarge && area < best_area)));
      } else {
        better = enlarge < best_enlarge ||
                 (enlarge == best_enlarge && area < best_area);
      }
      if (better) {
        best = i;
        best_overlap = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    node = node->entries[best].child.get();
    path->push_back(node);
  }
  return node;
}

void RStarTree::AdjustPath(std::vector<Node*>& path) {
  // Recompute the MBR stored in each parent entry along the path.
  for (size_t i = path.size(); i-- > 1;) {
    Node* parent = path[i - 1];
    Node* child = path[i];
    for (Entry& entry : parent->entries) {
      if (entry.child.get() == child) {
        entry.mbr = child->ComputeMbr(dims_);
        break;
      }
    }
  }
}

void RStarTree::InsertEntry(Entry entry, int level, bool allow_reinsert) {
  std::vector<Node*> path;
  Node* node = ChooseSubtree(entry.mbr, level, &path);
  node->entries.push_back(std::move(entry));
  AdjustPath(path);
  if (node->entries.size() > max_entries_) {
    OverflowTreatment(node, path, allow_reinsert);
  }
}

void RStarTree::OverflowTreatment(Node* node, std::vector<Node*>& path,
                                  bool allow_reinsert) {
  if (node != root_.get() && allow_reinsert) {
    Reinsert(node, path);
  } else {
    Split(node, path);
  }
}

void RStarTree::Reinsert(Node* node, std::vector<Node*>& path) {
  const size_t p = std::max<size_t>(1, max_entries_ * 3 / 10);
  RStarRect node_mbr = node->ComputeMbr(dims_);

  // Distance of each entry's center from the node MBR center.
  auto center_distance = [&](const Entry& e) {
    double dist = 0.0;
    for (size_t d = 0; d < dims_; ++d) {
      double ec = (e.mbr.lo[d] + e.mbr.hi[d]) * 0.5;
      double nc = (node_mbr.lo[d] + node_mbr.hi[d]) * 0.5;
      dist += (ec - nc) * (ec - nc);
    }
    return dist;
  };

  std::vector<size_t> order(node->entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return center_distance(node->entries[a]) >
           center_distance(node->entries[b]);
  });

  // Remove the p furthest entries.
  std::vector<Entry> removed;
  removed.reserve(p);
  std::vector<bool> remove_flag(node->entries.size(), false);
  for (size_t i = 0; i < p; ++i) remove_flag[order[i]] = true;
  std::vector<Entry> kept;
  kept.reserve(node->entries.size() - p);
  for (size_t i = 0; i < node->entries.size(); ++i) {
    if (remove_flag[i]) {
      removed.push_back(std::move(node->entries[i]));
    } else {
      kept.push_back(std::move(node->entries[i]));
    }
  }
  node->entries = std::move(kept);
  AdjustPath(path);

  // Close reinsert: nearest first. A further overflow at this level must
  // split (allow_reinsert = false) or reinsertion could loop forever.
  int level = node->level;
  for (size_t i = removed.size(); i-- > 0;) {
    InsertEntry(std::move(removed[i]), level, /*allow_reinsert=*/false);
  }
}

void RStarTree::Split(Node* node, std::vector<Node*>& path) {
  const size_t total = node->entries.size();
  const size_t m = min_entries_;
  QARM_CHECK_GE(total, 2 * m);

  // R* split: pick the axis with minimum margin sum over all candidate
  // distributions (both lower- and upper-bound sorts), then the
  // distribution with minimum overlap (ties: minimum total area).
  size_t best_axis = 0;
  bool best_axis_by_hi = false;
  double best_margin = std::numeric_limits<double>::infinity();

  auto sorted_order = [&](size_t axis, bool by_hi) {
    std::vector<size_t> order(total);
    for (size_t i = 0; i < total; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const RStarRect& ra = node->entries[a].mbr;
      const RStarRect& rb = node->entries[b].mbr;
      double ka = by_hi ? ra.hi[axis] : ra.lo[axis];
      double kb = by_hi ? rb.hi[axis] : rb.lo[axis];
      if (ka != kb) return ka < kb;
      double ta = by_hi ? ra.lo[axis] : ra.hi[axis];
      double tb = by_hi ? rb.lo[axis] : rb.hi[axis];
      return ta < tb;
    });
    return order;
  };

  auto margin_of_order = [&](const std::vector<size_t>& order) {
    // Prefix/suffix MBRs over the sorted order.
    std::vector<RStarRect> prefix(total), suffix(total);
    prefix[0] = node->entries[order[0]].mbr;
    for (size_t i = 1; i < total; ++i) {
      prefix[i] = Union(prefix[i - 1], node->entries[order[i]].mbr, dims_);
    }
    suffix[total - 1] = node->entries[order[total - 1]].mbr;
    for (size_t i = total - 1; i-- > 0;) {
      suffix[i] = Union(suffix[i + 1], node->entries[order[i]].mbr, dims_);
    }
    double margin_sum = 0.0;
    for (size_t split = m; split <= total - m; ++split) {
      margin_sum +=
          Margin(prefix[split - 1], dims_) + Margin(suffix[split], dims_);
    }
    return margin_sum;
  };

  for (size_t axis = 0; axis < dims_; ++axis) {
    for (bool by_hi : {false, true}) {
      double margin = margin_of_order(sorted_order(axis, by_hi));
      if (margin < best_margin) {
        best_margin = margin;
        best_axis = axis;
        best_axis_by_hi = by_hi;
      }
    }
  }

  std::vector<size_t> order = sorted_order(best_axis, best_axis_by_hi);
  std::vector<RStarRect> prefix(total), suffix(total);
  prefix[0] = node->entries[order[0]].mbr;
  for (size_t i = 1; i < total; ++i) {
    prefix[i] = Union(prefix[i - 1], node->entries[order[i]].mbr, dims_);
  }
  suffix[total - 1] = node->entries[order[total - 1]].mbr;
  for (size_t i = total - 1; i-- > 0;) {
    suffix[i] = Union(suffix[i + 1], node->entries[order[i]].mbr, dims_);
  }

  size_t best_split = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t split = m; split <= total - m; ++split) {
    double overlap = OverlapArea(prefix[split - 1], suffix[split], dims_);
    double area = Area(prefix[split - 1], dims_) + Area(suffix[split], dims_);
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_split = split;
    }
  }

  auto new_node = std::make_unique<Node>();
  new_node->level = node->level;
  std::vector<Entry> first_group;
  first_group.reserve(best_split);
  for (size_t i = 0; i < best_split; ++i) {
    first_group.push_back(std::move(node->entries[order[i]]));
  }
  for (size_t i = best_split; i < total; ++i) {
    new_node->entries.push_back(std::move(node->entries[order[i]]));
  }
  node->entries = std::move(first_group);

  if (node == root_.get()) {
    auto new_root = std::make_unique<Node>();
    new_root->level = node->level + 1;
    Entry left;
    left.mbr = node->ComputeMbr(dims_);
    left.child = std::move(root_);
    Entry right;
    right.mbr = new_node->ComputeMbr(dims_);
    right.child = std::move(new_node);
    new_root->entries.push_back(std::move(left));
    new_root->entries.push_back(std::move(right));
    root_ = std::move(new_root);
    return;
  }

  // Attach the new node to the parent; the parent may now overflow.
  QARM_CHECK_GE(path.size(), 2u);
  QARM_CHECK(path.back() == node);
  path.pop_back();
  Node* parent = path.back();
  AdjustPath(path);
  for (Entry& entry : parent->entries) {
    if (entry.child.get() == node) {
      entry.mbr = node->ComputeMbr(dims_);
      break;
    }
  }
  Entry sibling;
  sibling.mbr = new_node->ComputeMbr(dims_);
  sibling.child = std::move(new_node);
  parent->entries.push_back(std::move(sibling));
  if (parent->entries.size() > max_entries_) {
    // Split propagates upward; reinsertion is only attempted once per
    // insertion at the leaf level, so always split here.
    OverflowTreatment(parent, path, /*allow_reinsert=*/false);
  }
}

void RStarTree::ForEachContaining(
    const double* point, const std::function<void(int32_t)>& fn) const {
  if (size_ == 0) return;
  // Iterative DFS.
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->level == 0) {
      for (const Entry& entry : node->entries) {
        if (entry.mbr.ContainsPoint(point, dims_)) fn(entry.id);
      }
      continue;
    }
    for (const Entry& entry : node->entries) {
      if (entry.mbr.ContainsPoint(point, dims_)) {
        stack.push_back(entry.child.get());
      }
    }
  }
}

bool RStarTree::CheckInvariants() const {
  struct Walker {
    size_t dims;
    size_t max_entries;
    bool ok = true;

    void Walk(const Node* node, const RStarRect* expected_mbr) {
      if (node->entries.empty()) return;  // only legal for an empty root
      if (node->entries.size() > max_entries) ok = false;
      RStarRect mbr = node->ComputeMbr(dims);
      if (expected_mbr != nullptr) {
        for (size_t d = 0; d < dims; ++d) {
          if (mbr.lo[d] != expected_mbr->lo[d] ||
              mbr.hi[d] != expected_mbr->hi[d]) {
            ok = false;
          }
        }
      }
      for (const Entry& entry : node->entries) {
        if (node->level == 0) {
          if (entry.child != nullptr) ok = false;
        } else {
          if (entry.child == nullptr) {
            ok = false;
            continue;
          }
          if (entry.child->level != node->level - 1) ok = false;
          Walk(entry.child.get(), &entry.mbr);
        }
      }
    }
  };
  Walker walker{dims_, max_entries_};
  walker.Walk(root_.get(), nullptr);
  return walker.ok;
}

}  // namespace qarm
