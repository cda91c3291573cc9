#ifndef PREVER_CRYPTO_MERKLE_H_
#define PREVER_CRYPTO_MERKLE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace prever::crypto {

/// Append-only Merkle tree in the RFC 6962 (Certificate Transparency) style:
/// leaf hash = SHA-256(0x00 || leaf), node hash = SHA-256(0x01 || l || r).
/// Backs the centralized ledger database (RC4): inclusion proofs show an
/// entry is in the ledger; consistency proofs show one ledger state is an
/// append-only extension of an earlier one.
class MerkleTree {
 public:
  MerkleTree() = default;

  /// Appends a leaf (raw entry bytes, hashed internally). Returns its index.
  size_t Append(const Bytes& leaf);

  size_t LeafCount() const { return levels_.empty() ? 0 : levels_[0].size(); }

  /// Root hash over the current leaves. Empty tree hashes to SHA-256("").
  Bytes Root() const;

  /// Root over the first `n` leaves (historic digest). Requires n <= size.
  Result<Bytes> RootAt(size_t n) const;

  /// Audit path proving leaf `index` is included under RootAt(tree_size).
  Result<std::vector<Bytes>> InclusionProof(size_t index,
                                            size_t tree_size) const;

  /// Proof that the tree of size `old_size` is a prefix of size `new_size`.
  Result<std::vector<Bytes>> ConsistencyProof(size_t old_size,
                                              size_t new_size) const;

  /// Stateless verification of an inclusion proof.
  static bool VerifyInclusion(const Bytes& leaf, size_t index,
                              size_t tree_size, const std::vector<Bytes>& proof,
                              const Bytes& root);

  /// Stateless verification of a consistency proof.
  static bool VerifyConsistency(size_t old_size, size_t new_size,
                                const Bytes& old_root, const Bytes& new_root,
                                const std::vector<Bytes>& proof);

  /// Exposed hashing helpers.
  static Bytes HashLeaf(const Bytes& leaf);
  static Bytes HashNode(const Bytes& left, const Bytes& right);
  static Bytes EmptyRoot();

 private:
  /// One SHA-256 digest held inline: a cached node costs its 32 bytes, not
  /// a heap block plus a vector header.
  using Digest = std::array<uint8_t, 32>;

  static Digest LeafDigest(const Bytes& leaf);
  static Digest NodeDigest(const Digest& left, const Digest& right);
  static Bytes DigestBytes(const Digest& d) {
    return Bytes(d.begin(), d.end());
  }

  /// Root over leaf hash range [begin, end). `begin` is always aligned to
  /// the largest power of two <= the range length (invariant of the RFC
  /// 6962 recursion), which lets complete subtrees come from the level
  /// cache in O(1).
  Digest SubtreeRoot(size_t begin, size_t end) const;
  void SubtreeInclusion(size_t index, size_t begin, size_t end,
                        std::vector<Bytes>* proof) const;
  void SubtreeConsistency(size_t old_size, size_t begin, size_t end,
                          bool whole_known, std::vector<Bytes>* proof) const;

  /// levels_[h][i] = hash of the complete subtree covering leaves
  /// [i*2^h, (i+1)*2^h), so levels_[0] holds the leaf hashes; maintained
  /// incrementally on Append so digests and proofs cost O(log n) instead of
  /// rehashing the journal. Each level stores its digests inline in a
  /// deque, which grows by fixed-size blocks: an append never copies the
  /// digests already stored, where a vector's doubling would copy the
  /// whole level and briefly hold it twice.
  std::vector<std::deque<Digest>> levels_;
};

}  // namespace prever::crypto

#endif  // PREVER_CRYPTO_MERKLE_H_
