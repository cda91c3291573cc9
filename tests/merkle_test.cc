#include "crypto/merkle.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace prever::crypto {
namespace {

Bytes Leaf(int i) { return ToBytes("entry-" + std::to_string(i)); }

MerkleTree BuildTree(int n) {
  MerkleTree tree;
  for (int i = 0; i < n; ++i) tree.Append(Leaf(i));
  return tree;
}

TEST(MerkleTest, EmptyTreeRoot) {
  MerkleTree tree;
  EXPECT_EQ(tree.Root(), MerkleTree::EmptyRoot());
  EXPECT_EQ(HexEncode(tree.Root()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(MerkleTest, SingleLeafRootIsLeafHash) {
  MerkleTree tree;
  tree.Append(Leaf(0));
  EXPECT_EQ(tree.Root(), MerkleTree::HashLeaf(Leaf(0)));
}

TEST(MerkleTest, RootChangesOnAppend) {
  MerkleTree tree;
  Bytes prev = tree.Root();
  for (int i = 0; i < 20; ++i) {
    tree.Append(Leaf(i));
    Bytes cur = tree.Root();
    EXPECT_NE(cur, prev);
    prev = cur;
  }
}

TEST(MerkleTest, RootAtMatchesIncrementalRoots) {
  MerkleTree tree;
  std::vector<Bytes> roots;
  for (int i = 0; i < 17; ++i) {
    tree.Append(Leaf(i));
    roots.push_back(tree.Root());
  }
  for (int i = 0; i < 17; ++i) {
    auto historic = tree.RootAt(i + 1);
    ASSERT_TRUE(historic.ok());
    EXPECT_EQ(*historic, roots[i]) << i;
  }
}

// Naive RFC 6962 Merkle Tree Hash over raw leaves [begin, end): recursive
// over HashLeaf/HashNode with no level cache, the reference the tree's
// cached SubtreeRoot must reproduce.
Bytes ReferenceRoot(const std::vector<Bytes>& leaves, size_t begin,
                    size_t end) {
  size_t n = end - begin;
  if (n == 0) return MerkleTree::EmptyRoot();
  if (n == 1) return MerkleTree::HashLeaf(leaves[begin]);
  size_t k = 1;
  while (k * 2 < n) k *= 2;
  return MerkleTree::HashNode(ReferenceRoot(leaves, begin, begin + k),
                              ReferenceRoot(leaves, begin + k, end));
}

// Differential check of the level cache against the reference: roots at
// every size across a power-of-two boundary (2^7), historic roots at every
// intermediate size, and inclusion and consistency proofs verifying against
// the reference roots.
TEST(MerkleTest, LevelCacheMatchesReferenceHash) {
  constexpr size_t kMax = 130;
  std::vector<Bytes> leaves;
  std::vector<Bytes> ref;  // ref[n] = reference root over the first n leaves.
  for (size_t n = 0; n <= kMax; ++n) {
    ref.push_back(ReferenceRoot(leaves, 0, n));
    leaves.push_back(Leaf(static_cast<int>(n)));
  }

  MerkleTree tree;
  for (size_t size = 0; size <= kMax; ++size) {
    if (size > 0) {
      ASSERT_EQ(tree.Append(leaves[size - 1]), size - 1);
    }
    ASSERT_EQ(tree.LeafCount(), size);
    ASSERT_EQ(tree.Root(), ref[size]) << size;
    for (size_t n = 0; n <= size; ++n) {
      auto root = tree.RootAt(n);
      ASSERT_TRUE(root.ok()) << size << "@" << n;
      ASSERT_EQ(*root, ref[n]) << size << "@" << n;
    }
  }
  for (size_t n = 1; n <= kMax; ++n) {
    for (size_t i = 0; i < n; ++i) {
      auto proof = tree.InclusionProof(i, n);
      ASSERT_TRUE(proof.ok()) << n << "/" << i;
      ASSERT_TRUE(MerkleTree::VerifyInclusion(leaves[i], i, n, *proof, ref[n]))
          << n << "/" << i;
    }
  }
  for (size_t n = 0; n <= 40; ++n) {
    for (size_t m = 0; m <= n; ++m) {
      auto proof = tree.ConsistencyProof(m, n);
      ASSERT_TRUE(proof.ok()) << m << "->" << n;
      ASSERT_TRUE(
          MerkleTree::VerifyConsistency(m, n, ref[m], ref[n], *proof))
          << m << "->" << n;
    }
  }
}

TEST(MerkleTest, RootAtRejectsOversize) {
  MerkleTree tree = BuildTree(3);
  EXPECT_FALSE(tree.RootAt(4).ok());
}

TEST(MerkleTest, InclusionProofsVerifyForAllLeavesAndSizes) {
  // Exhaustive over tree sizes 1..33 and every leaf — covers both balanced
  // and skewed shapes.
  for (int n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33}) {
    MerkleTree tree = BuildTree(n);
    Bytes root = tree.Root();
    for (int i = 0; i < n; ++i) {
      auto proof = tree.InclusionProof(i, n);
      ASSERT_TRUE(proof.ok()) << n << "/" << i;
      EXPECT_TRUE(MerkleTree::VerifyInclusion(Leaf(i), i, n, *proof, root))
          << n << "/" << i;
    }
  }
}

TEST(MerkleTest, InclusionProofForHistoricSize) {
  MerkleTree tree = BuildTree(20);
  Bytes root_at_12 = *tree.RootAt(12);
  auto proof = tree.InclusionProof(5, 12);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(MerkleTree::VerifyInclusion(Leaf(5), 5, 12, *proof, root_at_12));
}

TEST(MerkleTest, InclusionProofRejectsWrongLeaf) {
  MerkleTree tree = BuildTree(10);
  auto proof = tree.InclusionProof(3, 10);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(
      MerkleTree::VerifyInclusion(Leaf(4), 3, 10, *proof, tree.Root()));
}

TEST(MerkleTest, InclusionProofRejectsWrongIndex) {
  MerkleTree tree = BuildTree(10);
  auto proof = tree.InclusionProof(3, 10);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(
      MerkleTree::VerifyInclusion(Leaf(3), 4, 10, *proof, tree.Root()));
}

TEST(MerkleTest, InclusionProofRejectsTamperedPath) {
  MerkleTree tree = BuildTree(10);
  auto proof = tree.InclusionProof(3, 10);
  ASSERT_TRUE(proof.ok());
  (*proof)[0][0] ^= 1;
  EXPECT_FALSE(
      MerkleTree::VerifyInclusion(Leaf(3), 3, 10, *proof, tree.Root()));
}

TEST(MerkleTest, InclusionProofRejectsTruncatedPath) {
  MerkleTree tree = BuildTree(10);
  auto proof = tree.InclusionProof(3, 10);
  ASSERT_TRUE(proof.ok());
  proof->pop_back();
  EXPECT_FALSE(
      MerkleTree::VerifyInclusion(Leaf(3), 3, 10, *proof, tree.Root()));
}

TEST(MerkleTest, InclusionProofOutOfRangeErrors) {
  MerkleTree tree = BuildTree(5);
  EXPECT_FALSE(tree.InclusionProof(5, 5).ok());
  EXPECT_FALSE(tree.InclusionProof(0, 6).ok());
}

TEST(MerkleTest, ConsistencyProofsVerifyAcrossSizes) {
  MerkleTree tree = BuildTree(33);
  for (size_t old_size : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 9u, 16u, 20u, 32u, 33u}) {
    for (size_t new_size : {1u, 2u, 4u, 8u, 9u, 16u, 17u, 32u, 33u}) {
      if (old_size > new_size) continue;
      auto proof = tree.ConsistencyProof(old_size, new_size);
      ASSERT_TRUE(proof.ok()) << old_size << "->" << new_size;
      Bytes old_root = *tree.RootAt(old_size);
      Bytes new_root = *tree.RootAt(new_size);
      EXPECT_TRUE(MerkleTree::VerifyConsistency(old_size, new_size, old_root,
                                                new_root, *proof))
          << old_size << "->" << new_size;
    }
  }
}

TEST(MerkleTest, ConsistencyRejectsForkedHistory) {
  // Two ledgers agree on the first 8 entries then diverge: the forked
  // ledger's newer root must fail consistency against the honest old root.
  MerkleTree honest = BuildTree(8);
  MerkleTree forked = BuildTree(8);
  for (int i = 8; i < 12; ++i) honest.Append(Leaf(i));
  for (int i = 8; i < 12; ++i) forked.Append(ToBytes("forged-" + std::to_string(i)));
  Bytes old_root = *honest.RootAt(8);
  auto proof = forked.ConsistencyProof(8, 12);
  ASSERT_TRUE(proof.ok());
  // Proof from the forked tree proves forked root, not honest continuation…
  EXPECT_TRUE(MerkleTree::VerifyConsistency(8, 12, old_root, forked.Root(),
                                            *proof));
  // …but a *rewritten history* (different first 8 entries) cannot produce a
  // proof matching the honest old root:
  MerkleTree rewritten;
  for (int i = 0; i < 12; ++i) rewritten.Append(ToBytes("rewrite-" + std::to_string(i)));
  auto bad_proof = rewritten.ConsistencyProof(8, 12);
  ASSERT_TRUE(bad_proof.ok());
  EXPECT_FALSE(MerkleTree::VerifyConsistency(8, 12, old_root,
                                             rewritten.Root(), *bad_proof));
}

TEST(MerkleTest, ConsistencyRejectsTamperedProof) {
  MerkleTree tree = BuildTree(20);
  auto proof = tree.ConsistencyProof(7, 20);
  ASSERT_TRUE(proof.ok());
  ASSERT_FALSE(proof->empty());
  (*proof)[0][5] ^= 0xff;
  EXPECT_FALSE(MerkleTree::VerifyConsistency(7, 20, *tree.RootAt(7),
                                             tree.Root(), *proof));
}

TEST(MerkleTest, ConsistencySameSizeRequiresEqualRoots) {
  MerkleTree a = BuildTree(6);
  MerkleTree b = BuildTree(7);
  EXPECT_TRUE(MerkleTree::VerifyConsistency(6, 6, a.Root(), a.Root(), {}));
  EXPECT_FALSE(MerkleTree::VerifyConsistency(6, 6, a.Root(), b.Root(), {}));
}

TEST(MerkleTest, ConsistencyProofErrorCases) {
  MerkleTree tree = BuildTree(5);
  EXPECT_FALSE(tree.ConsistencyProof(3, 6).ok());  // Beyond tree.
  EXPECT_FALSE(tree.ConsistencyProof(4, 3).ok());  // old > new.
}

// Property: random mutation of any proof element breaks verification.
class MerkleMutationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MerkleMutationProperty, AnyBitFlipInvalidatesInclusion) {
  prever::Rng rng(GetParam());
  int n = 2 + static_cast<int>(rng.NextBelow(60));
  MerkleTree tree = BuildTree(n);
  int index = static_cast<int>(rng.NextBelow(n));
  auto proof = tree.InclusionProof(index, n);
  ASSERT_TRUE(proof.ok());
  if (proof->empty()) return;
  size_t which = rng.NextBelow(proof->size());
  size_t byte = rng.NextBelow(32);
  uint8_t bit = static_cast<uint8_t>(1u << rng.NextBelow(8));
  (*proof)[which][byte] ^= bit;
  EXPECT_FALSE(MerkleTree::VerifyInclusion(Leaf(index), index, n, *proof,
                                           tree.Root()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MerkleMutationProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace prever::crypto
