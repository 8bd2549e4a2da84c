// Package provenance turns a persisted corpus into a tamper-evident,
// verifiable artifact. The paper's product *is* a benchmark dataset: a
// matcher comparison over NC1/NC2/NC3 is only meaningful if the consumer
// can prove they ran against the exact bytes the generator produced. The
// package layers a hash-chained, Merkle-style provenance record over the
// docstore's segment manifests: every segment file is a leaf (SHA-256 of
// its bytes), leaves roll up into per-collection Merkle roots, collection
// headers roll up into one corpus root, and each save appends a link to a
// hash chain whose head commits to the root, the document count and the
// generator metadata. A dirty-segment delta save (docstore.SaveOpts.Dirty)
// extends the chain with a new link while reusing the leaf digests of
// unchanged segments — the record grows with the corpus history instead of
// being rewritten, so downstream consumers can audit not just the current
// bytes but the import lineage that produced them.
//
// Save stamps records on the write path, VerifyDir re-derives every digest
// on the verify path (`ncstats -verify`), and GET /v1/provenance exposes
// the record to consumers. The chain is tamper-evident, not tamper-proof:
// an adversary who can rewrite every file can re-forge the whole record,
// so consumers pin the head hash (or the corpus root) out of band and
// check it with VerifyOpts.ExpectRoot — the same trust model as the
// audit-log head published by verifiable election stores.
package provenance

import "crypto/sha256"

// The Merkle tree follows the RFC 6962 (Certificate Transparency) shape:
// leaf hashes are domain-separated from interior node hashes (0x00 vs 0x01
// prefix), so no concatenation of leaves can collide with an interior
// node, and a tree over n leaves splits at the largest power of two
// strictly below n. The empty tree hashes to SHA-256 of the empty string.

const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// Digest is one SHA-256 output.
type Digest = [sha256.Size]byte

// leafHash hashes one leaf's data with the leaf domain prefix.
func leafHash(data []byte) Digest {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var d Digest
	h.Sum(d[:0])
	return d
}

// nodeHash combines two subtree digests with the interior-node prefix.
func nodeHash(l, r Digest) Digest {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(l[:])
	h.Write(r[:])
	var d Digest
	h.Sum(d[:0])
	return d
}

// splitPoint returns the largest power of two strictly less than n (n >= 2).
func splitPoint(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// MerkleRoot computes the root digest over the leaves' data in order.
func MerkleRoot(leaves [][]byte) Digest {
	if len(leaves) == 0 {
		return sha256.Sum256(nil)
	}
	return merkleRange(leaves)
}

func merkleRange(leaves [][]byte) Digest {
	if len(leaves) == 1 {
		return leafHash(leaves[0])
	}
	k := splitPoint(len(leaves))
	return nodeHash(merkleRange(leaves[:k]), merkleRange(leaves[k:]))
}

// MerkleProof returns the inclusion proof (audit path, leaf to root) of
// leaf i: the sibling subtree digests a verifier needs to recompute the
// root from that single leaf. A one-leaf tree has an empty proof.
func MerkleProof(leaves [][]byte, i int) []Digest {
	if i < 0 || i >= len(leaves) {
		return nil
	}
	return proofRange(leaves, i)
}

func proofRange(leaves [][]byte, i int) []Digest {
	if len(leaves) == 1 {
		return nil
	}
	k := splitPoint(len(leaves))
	if i < k {
		return append(proofRange(leaves[:k], i), merkleRange(leaves[k:]))
	}
	return append(proofRange(leaves[k:], i-k), merkleRange(leaves[:k]))
}

// VerifyMerkleProof reports whether the proof demonstrates that data is
// leaf i of an n-leaf tree with the given root.
func VerifyMerkleProof(data []byte, i, n int, proof []Digest, root Digest) bool {
	if i < 0 || i >= n || n == 0 {
		return false
	}
	got, ok := rebuildRoot(leafHash(data), i, n, proof)
	return ok && got == root
}

// rebuildRoot folds the audit path back up; ok is false when the proof has
// the wrong length for the (i, n) position.
func rebuildRoot(leaf Digest, i, n int, proof []Digest) (Digest, bool) {
	if n == 1 {
		return leaf, len(proof) == 0
	}
	if len(proof) == 0 {
		return Digest{}, false
	}
	sibling := proof[len(proof)-1]
	rest := proof[:len(proof)-1]
	k := splitPoint(n)
	if i < k {
		sub, ok := rebuildRoot(leaf, i, k, rest)
		return nodeHash(sub, sibling), ok
	}
	sub, ok := rebuildRoot(leaf, i-k, n-k, rest)
	return nodeHash(sibling, sub), ok
}
