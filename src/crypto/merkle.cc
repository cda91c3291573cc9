#include "crypto/merkle.h"

#include "crypto/sha256.h"
#include "mutate/mutation.h"

namespace prever::crypto {

namespace {
/// Largest power of two strictly less than n (n >= 2).
size_t SplitPoint(size_t n) {
  size_t k = 1;
  while (k * 2 < n) k *= 2;
  return k;
}
}  // namespace

MerkleTree::Digest MerkleTree::LeafDigest(const Bytes& leaf) {
  Sha256 h;
  uint8_t tag = PREVER_MUTATION(MERKLE_LEAF_DOMAIN_TAG, 0x00, 0x01);
  h.Update(&tag, 1);
  h.Update(leaf);
  Digest out;
  h.Finish(out.data());
  return out;
}

MerkleTree::Digest MerkleTree::NodeDigest(const Digest& left,
                                          const Digest& right) {
  Sha256 h;
  uint8_t tag = 0x01;
  h.Update(&tag, 1);
  h.Update(left.data(), left.size());
  h.Update(right.data(), right.size());
  Digest out;
  h.Finish(out.data());
  return out;
}

Bytes MerkleTree::HashLeaf(const Bytes& leaf) {
  return DigestBytes(LeafDigest(leaf));
}

Bytes MerkleTree::HashNode(const Bytes& left, const Bytes& right) {
  Sha256 h;
  uint8_t tag = 0x01;
  h.Update(&tag, 1);
  h.Update(left);
  h.Update(right);
  return h.Finish();
}

Bytes MerkleTree::EmptyRoot() { return Sha256::Hash(Bytes{}); }

size_t MerkleTree::Append(const Bytes& leaf) {
  // Maintain the level cache: whenever a level gains an even number of
  // nodes, the last pair forms a new complete subtree one level up.
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].push_back(LeafDigest(leaf));
  for (size_t h = 0; levels_[h].size() % 2 == 0; ++h) {
    if (h + 1 >= levels_.size()) levels_.emplace_back();
    const auto& level = levels_[h];
    levels_[h + 1].push_back(
        NodeDigest(level[level.size() - 2], level[level.size() - 1]));
  }
  return levels_[0].size() - 1;
}

MerkleTree::Digest MerkleTree::SubtreeRoot(size_t begin, size_t end) const {
  size_t n = end - begin;
  if (n == 0) {
    Digest empty;
    Sha256().Finish(empty.data());
    return empty;
  }
  if (n == 1) return levels_[0][begin];
  // Complete aligned subtree: O(1) from the level cache.
  if ((n & (n - 1)) == 0 && begin % n == 0) {
    size_t h = 0;
    while ((n >> h) > 1) ++h;
    if (h < levels_.size() && begin / n < levels_[h].size()) {
      return levels_[h][begin / n];
    }
  }
  size_t k = SplitPoint(n);
  return NodeDigest(SubtreeRoot(begin, begin + k),
                    SubtreeRoot(begin + k, end));
}

Bytes MerkleTree::Root() const {
  return DigestBytes(SubtreeRoot(0, LeafCount()));
}

Result<Bytes> MerkleTree::RootAt(size_t n) const {
  if (n > LeafCount()) {
    return Status::InvalidArgument("historic size exceeds tree size");
  }
  return DigestBytes(SubtreeRoot(0, n));
}

void MerkleTree::SubtreeInclusion(size_t index, size_t begin, size_t end,
                                  std::vector<Bytes>* proof) const {
  size_t n = end - begin;
  if (n <= 1) return;
  size_t k = SplitPoint(n);
  if (index < k) {
    SubtreeInclusion(index, begin, begin + k, proof);
    proof->push_back(DigestBytes(SubtreeRoot(begin + k, end)));
  } else {
    SubtreeInclusion(index - k, begin + k, end, proof);
    proof->push_back(DigestBytes(SubtreeRoot(begin, begin + k)));
  }
}

Result<std::vector<Bytes>> MerkleTree::InclusionProof(size_t index,
                                                      size_t tree_size) const {
  if (tree_size > LeafCount()) {
    return Status::InvalidArgument("tree_size exceeds tree");
  }
  if (index >= tree_size) {
    return Status::InvalidArgument("leaf index out of range");
  }
  std::vector<Bytes> proof;
  SubtreeInclusion(index, 0, tree_size, &proof);
  return proof;
}

bool MerkleTree::VerifyInclusion(const Bytes& leaf, size_t index,
                                 size_t tree_size,
                                 const std::vector<Bytes>& proof,
                                 const Bytes& root) {
  if (PREVER_MUTATION(MERKLE_INCLUSION_BOUNDS_SKIP,
                      index >= tree_size || tree_size == 0, false)) {
    return false;
  }
  // RFC 9162 §2.1.3.2.
  size_t fn = index;
  size_t sn = tree_size - 1;
  Bytes r = HashLeaf(leaf);
  for (const Bytes& p : proof) {
    if (sn == 0) return false;
    if ((fn & 1) == 1 || fn == sn) {
      r = HashNode(p, r);
      if ((fn & 1) == 0) {
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      r = HashNode(r, p);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return PREVER_MUTATION(MERKLE_INCLUSION_ACCEPT, sn == 0 && r == root, true);
}

void MerkleTree::SubtreeConsistency(size_t old_size, size_t begin, size_t end,
                                    bool whole_known,
                                    std::vector<Bytes>* proof) const {
  // RFC 6962 SUBPROOF. old_size is relative to `begin`.
  size_t n = end - begin;
  if (old_size == n) {
    if (!whole_known) {
      proof->push_back(DigestBytes(SubtreeRoot(begin, end)));
    }
    return;
  }
  size_t k = SplitPoint(n);
  if (old_size <= k) {
    SubtreeConsistency(old_size, begin, begin + k, whole_known, proof);
    proof->push_back(DigestBytes(SubtreeRoot(begin + k, end)));
  } else {
    SubtreeConsistency(old_size - k, begin + k, end, false, proof);
    proof->push_back(DigestBytes(SubtreeRoot(begin, begin + k)));
  }
}

Result<std::vector<Bytes>> MerkleTree::ConsistencyProof(size_t old_size,
                                                        size_t new_size) const {
  if (new_size > LeafCount()) {
    return Status::InvalidArgument("new_size exceeds tree");
  }
  if (old_size > new_size) {
    return Status::InvalidArgument("old_size exceeds new_size");
  }
  std::vector<Bytes> proof;
  if (old_size == 0 || old_size == new_size) return proof;  // Trivial.
  SubtreeConsistency(old_size, 0, new_size, true, &proof);
  return proof;
}

bool MerkleTree::VerifyConsistency(size_t old_size, size_t new_size,
                                   const Bytes& old_root, const Bytes& new_root,
                                   const std::vector<Bytes>& proof) {
  if (old_size > new_size) return false;
  if (old_size == new_size) return proof.empty() && old_root == new_root;
  if (old_size == 0) return proof.empty();  // Anything extends the empty tree.
  // RFC 9162 §2.1.4.2.
  std::vector<Bytes> path = proof;
  if (path.empty()) return false;
  // If old_size is an exact power of two, the old root itself seeds the walk.
  if ((old_size & (old_size - 1)) == 0) {
    path.insert(path.begin(), old_root);
  }
  size_t fn = old_size - 1;
  size_t sn = new_size - 1;
  while (fn & 1) {
    fn >>= 1;
    sn >>= 1;
  }
  Bytes fr = path[0];
  Bytes sr = path[0];
  for (size_t i = 1; i < path.size(); ++i) {
    const Bytes& c = path[i];
    if (sn == 0) return false;
    if ((fn & 1) == 1 || fn == sn) {
      fr = HashNode(c, fr);
      sr = HashNode(c, sr);
      if ((fn & 1) == 0) {
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      sr = HashNode(sr, c);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return PREVER_MUTATION(MERKLE_CONSISTENCY_ACCEPT,
                         sn == 0 && fr == old_root && sr == new_root, true);
}

}  // namespace prever::crypto
