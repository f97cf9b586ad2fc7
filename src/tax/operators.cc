#include "tax/operators.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/scheduler.h"

namespace toss::tax {

namespace {

/// Appends `tree` to `out` unless an equal tree (CanonicalKey) was appended
/// before.
class Deduper {
 public:
  void Add(DataTree tree, TreeCollection* out) {
    if (tree.empty()) return;
    if (seen_.insert(tree.CanonicalKey()).second) {
      out->push_back(std::move(tree));
    }
  }

 private:
  std::unordered_set<std::string> seen_;
};

/// Builds the induced forest over `kept` nodes of `src`: top-most kept
/// nodes become roots of separate output trees; descendants attach to their
/// closest kept ancestor. `full` nodes bring their whole data subtree.
void BuildForest(const DataTree& src, NodeId src_id,
                 const std::set<NodeId>& kept, const std::set<NodeId>& full,
                 DataTree* current, NodeId current_parent, Deduper* dedup,
                 TreeCollection* out) {
  bool is_kept = kept.count(src_id) > 0;
  if (is_kept && current == nullptr) {
    // Top-most kept node: starts a fresh output tree.
    DataTree tree;
    if (full.count(src_id)) {
      tree.CopySubtree(src, src_id, kInvalidNode);
    } else {
      const DataNode& n = src.node(src_id);
      NodeId id = tree.CreateRoot(n.tag, n.content);
      tree.node(id).tag_type = n.tag_type;
      tree.node(id).content_type = n.content_type;
      tree.node(id).provenance = n.provenance;
      for (NodeId c : src.node(src_id).children) {
        BuildForest(src, c, kept, full, &tree, id, dedup, out);
      }
    }
    dedup->Add(std::move(tree), out);
    return;
  }
  NodeId next_parent = current_parent;
  if (is_kept) {
    if (full.count(src_id)) {
      current->CopySubtree(src, src_id, current_parent);
      return;
    }
    const DataNode& n = src.node(src_id);
    NodeId id = current->AppendChild(current_parent, n.tag, n.content);
    current->node(id).tag_type = n.tag_type;
    current->node(id).content_type = n.content_type;
    current->node(id).provenance = n.provenance;
    next_parent = id;
  }
  for (NodeId c : src.node(src_id).children) {
    BuildForest(src, c, kept, full, current, next_parent, dedup, out);
  }
}

}  // namespace

Result<TreeCollection> SelectTree(const DataTree& tree,
                                  const PatternTree& pattern,
                                  const std::set<int>& expand,
                                  const ConditionSemantics& semantics) {
  TOSS_ASSIGN_OR_RETURN(std::vector<Embedding> embeddings,
                        FindEmbeddings(pattern, tree, semantics));
  TreeCollection out;
  Deduper dedup;
  for (const Embedding& h : embeddings) {
    dedup.Add(BuildWitnessTree(pattern, tree, h, expand), &out);
  }
  return out;
}

Result<TreeCollection> ProjectTree(const DataTree& tree,
                                   const PatternTree& pattern,
                                   const std::vector<ProjectItem>& pl,
                                   const ConditionSemantics& semantics) {
  TOSS_ASSIGN_OR_RETURN(std::vector<Embedding> embeddings,
                        FindEmbeddings(pattern, tree, semantics));
  std::set<NodeId> kept;
  std::set<NodeId> full;
  for (const Embedding& h : embeddings) {
    for (const ProjectItem& item : pl) {
      NodeId mapped = h.mapping.Get(item.label);
      if (mapped == kInvalidNode) continue;
      kept.insert(mapped);
      if (item.keep_subtree) full.insert(mapped);
    }
  }
  TreeCollection out;
  if (kept.empty()) return out;
  Deduper dedup;
  BuildForest(tree, tree.root(), kept, full, nullptr, kInvalidNode, &dedup,
              &out);
  return out;
}

Result<std::vector<GroupedWitness>> GroupByTree(
    const DataTree& tree, const PatternTree& pattern, int group_label,
    const std::set<int>& expand, const ConditionSemantics& semantics) {
  if (pattern.IndexOfLabel(group_label) < 0) {
    return Status::InvalidArgument("GroupBy: label $" +
                                   std::to_string(group_label) +
                                   " is not a pattern node");
  }
  TOSS_ASSIGN_OR_RETURN(std::vector<Embedding> embeddings,
                        FindEmbeddings(pattern, tree, semantics));
  std::vector<GroupedWitness> out;
  out.reserve(embeddings.size());
  for (const Embedding& h : embeddings) {
    GroupedWitness gw;
    gw.value = tree.node(h.mapping.Get(group_label)).content;
    gw.witness = BuildWitnessTree(pattern, tree, h, expand);
    out.push_back(std::move(gw));
  }
  return out;
}

TreeCollection AssembleGroups(std::vector<std::vector<GroupedWitness>> parts) {
  // Grouping value -> (first-occurrence order, deduped member trees).
  std::vector<std::string> group_order;
  std::map<std::string, TreeCollection> groups;
  std::map<std::string, std::unordered_set<std::string>> seen;
  for (std::vector<GroupedWitness>& part : parts) {
    for (GroupedWitness& gw : part) {
      if (groups.find(gw.value) == groups.end()) {
        group_order.push_back(gw.value);
      }
      if (seen[gw.value].insert(gw.witness.CanonicalKey()).second) {
        groups[gw.value].push_back(std::move(gw.witness));
      }
    }
  }
  TreeCollection out;
  out.reserve(group_order.size());
  for (const std::string& value : group_order) {
    DataTree group;
    NodeId root = group.CreateRoot(kGroupRootTag, value);
    TreeCollection& members = groups[value];
    group.node(root).provenance = members.size();  // count aggregate
    for (const DataTree& member : members) {
      group.CopySubtree(member, member.root(), root);
    }
    out.push_back(std::move(group));
  }
  return out;
}

Result<TreeCollection> JoinTreeWithRight(
    const DataTree& left_tree, const std::vector<const DataTree*>& right,
    const PatternTree& pattern, const std::set<int>& expand,
    const ConditionSemantics& semantics) {
  TreeCollection out;
  Deduper dedup;
  for (const DataTree* b : right) {
    DataTree pair;
    NodeId root = pair.CreateRoot(kProductRootTag);
    pair.CopySubtree(left_tree, left_tree.root(), root);
    pair.CopySubtree(*b, b->root(), root);
    pair.BuildTagIndex();
    TOSS_ASSIGN_OR_RETURN(std::vector<Embedding> embeddings,
                          FindEmbeddings(pattern, pair, semantics));
    for (const Embedding& h : embeddings) {
      dedup.Add(BuildWitnessTree(pattern, pair, h, expand), &out);
    }
  }
  return out;
}

TreeCollection MergeDedup(std::vector<TreeCollection> parts,
                          size_t max_width) {
  std::vector<DataTree*> trees;
  for (TreeCollection& part : parts) {
    for (DataTree& tree : part) {
      if (!tree.empty()) trees.push_back(&tree);
    }
  }
  // Hashing each tree's canonical key is independent work; only hashes
  // are kept, so the keys never all live at once. The first-occurrence
  // scan that follows is the one order-dependent step. It confirms a hash
  // match by building the candidate's key once and comparing it with the
  // colliding kept trees' keys, each built on its first collision only.
  std::vector<size_t> hashes(trees.size());
  (void)Scheduler::Global().ParallelFor(
      trees.size(),
      [&](size_t i) {
        hashes[i] = std::hash<std::string>{}(trees[i]->CanonicalKey());
        return Status::OK();
      },
      max_width);
  TreeCollection out;
  std::unordered_multimap<size_t, size_t> kept;  // hash -> index in out
  std::vector<std::string> kept_keys;  // parallel to out; "" = not built
  kept.reserve(trees.size());
  for (size_t i = 0; i < trees.size(); ++i) {
    auto [first, last] = kept.equal_range(hashes[i]);
    std::string key;
    if (first != last) {
      key = trees[i]->CanonicalKey();
      const bool seen = std::any_of(first, last, [&](const auto& entry) {
        std::string& other = kept_keys[entry.second];
        if (other.empty()) other = out[entry.second].CanonicalKey();
        return other == key;
      });
      if (seen) continue;
    }
    kept.emplace(hashes[i], out.size());
    kept_keys.push_back(std::move(key));
    out.push_back(std::move(*trees[i]));
  }
  return out;
}

Result<TreeCollection> Select(const TreeCollection& input,
                              const PatternTree& pattern,
                              const std::vector<int>& sl,
                              const ConditionSemantics& semantics) {
  std::set<int> expand(sl.begin(), sl.end());
  std::vector<TreeCollection> parts;
  parts.reserve(input.size());
  for (const DataTree& tree : input) {
    TOSS_ASSIGN_OR_RETURN(TreeCollection part,
                          SelectTree(tree, pattern, expand, semantics));
    parts.push_back(std::move(part));
  }
  return MergeDedup(std::move(parts));
}

Result<TreeCollection> Project(const TreeCollection& input,
                               const PatternTree& pattern,
                               const std::vector<ProjectItem>& pl,
                               const ConditionSemantics& semantics) {
  std::vector<TreeCollection> parts;
  parts.reserve(input.size());
  for (const DataTree& tree : input) {
    TOSS_ASSIGN_OR_RETURN(TreeCollection part,
                          ProjectTree(tree, pattern, pl, semantics));
    parts.push_back(std::move(part));
  }
  return MergeDedup(std::move(parts));
}

TreeCollection Product(const TreeCollection& left,
                       const TreeCollection& right) {
  TreeCollection out;
  out.reserve(left.size() * right.size());
  for (const DataTree& a : left) {
    for (const DataTree& b : right) {
      DataTree tree;
      NodeId root = tree.CreateRoot(kProductRootTag);
      tree.CopySubtree(a, a.root(), root);
      tree.CopySubtree(b, b.root(), root);
      out.push_back(std::move(tree));
    }
  }
  return out;
}

Result<TreeCollection> Join(const TreeCollection& left,
                            const TreeCollection& right,
                            const PatternTree& pattern,
                            const std::vector<int>& sl,
                            const ConditionSemantics& semantics) {
  // Semantically Select(Product(left, right), ...), but the product is
  // streamed one pair-tree at a time: materializing |L|*|R| trees up front
  // dominates memory at realistic sizes.
  std::set<int> expand(sl.begin(), sl.end());
  std::vector<const DataTree*> right_ptrs;
  right_ptrs.reserve(right.size());
  for (const DataTree& b : right) right_ptrs.push_back(&b);
  std::vector<TreeCollection> parts;
  parts.reserve(left.size());
  for (const DataTree& a : left) {
    TOSS_ASSIGN_OR_RETURN(
        TreeCollection part,
        JoinTreeWithRight(a, right_ptrs, pattern, expand, semantics));
    parts.push_back(std::move(part));
  }
  return MergeDedup(std::move(parts));
}

Result<TreeCollection> GroupBy(const TreeCollection& input,
                               const PatternTree& pattern, int group_label,
                               const std::vector<int>& sl,
                               const ConditionSemantics& semantics) {
  if (pattern.IndexOfLabel(group_label) < 0) {
    return Status::InvalidArgument("GroupBy: label $" +
                                   std::to_string(group_label) +
                                   " is not a pattern node");
  }
  std::set<int> expand(sl.begin(), sl.end());
  std::vector<std::vector<GroupedWitness>> parts;
  parts.reserve(input.size());
  for (const DataTree& tree : input) {
    TOSS_ASSIGN_OR_RETURN(
        std::vector<GroupedWitness> part,
        GroupByTree(tree, pattern, group_label, expand, semantics));
    parts.push_back(std::move(part));
  }
  return AssembleGroups(std::move(parts));
}

TreeCollection Union(const TreeCollection& left,
                     const TreeCollection& right) {
  TreeCollection out;
  Deduper dedup;
  for (const DataTree& t : left) dedup.Add(t, &out);
  for (const DataTree& t : right) dedup.Add(t, &out);
  return out;
}

TreeCollection Intersect(const TreeCollection& left,
                         const TreeCollection& right) {
  std::unordered_set<std::string> right_keys;
  for (const DataTree& t : right) right_keys.insert(t.CanonicalKey());
  TreeCollection out;
  Deduper dedup;
  for (const DataTree& t : left) {
    if (right_keys.count(t.CanonicalKey())) dedup.Add(t, &out);
  }
  return out;
}

TreeCollection Difference(const TreeCollection& left,
                          const TreeCollection& right) {
  std::unordered_set<std::string> right_keys;
  for (const DataTree& t : right) right_keys.insert(t.CanonicalKey());
  TreeCollection out;
  Deduper dedup;
  for (const DataTree& t : left) {
    if (!right_keys.count(t.CanonicalKey())) dedup.Add(t, &out);
  }
  return out;
}

}  // namespace toss::tax
