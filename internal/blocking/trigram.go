// The trigram/minhash banding blocker — the LSH-style complement to SNM
// for noisy fields (cf. "Unsupervised record matching with noisy and
// incomplete data", PAPERS.md). A record's signature is Bands×Rows
// minhashes over the trigram set of its configured attributes; each band's
// row values hash into a bucket key, and every bucket with 2..MaxBucket
// members emits its pairs. A single corrupted leading character — fatal to
// a lexicographic SNM sort — changes only a few trigrams, so the minhash
// rows still collide with high probability.
//
// Every per-record computation (trigram set, signature, band keys) is a
// pure function of the record and the config, and bucket grouping sorts
// band entries under a total order before scanning runs — so the parallel
// blocker is bit-identical to the sequential one for any worker count.

package blocking

import (
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/dedup"
)

func (tc TrigramConfig) bands() int {
	if tc.Bands <= 0 {
		return DefaultBands
	}
	return tc.Bands
}

func (tc TrigramConfig) rows() int {
	if tc.Rows <= 0 {
		return DefaultRows
	}
	return tc.Rows
}

func (tc TrigramConfig) maxBucket() int {
	switch {
	case tc.MaxBucket == 0:
		return DefaultMaxBucket
	case tc.MaxBucket < 0:
		return int(^uint(0) >> 1)
	}
	return tc.MaxBucket
}

// attrs resolves the signature attributes: configured indices, else the
// dataset's name attributes, else every attribute.
func (tc TrigramConfig) attrs(ds *dedup.Dataset) []int {
	if len(tc.Attrs) > 0 {
		return tc.Attrs
	}
	if len(ds.NameAttrs) > 0 {
		return ds.NameAttrs
	}
	all := make([]int, len(ds.Attrs))
	for i := range all {
		all[i] = i
	}
	return all
}

// bucketStats counts the grouping outcome: buckets with at least two
// members, and how many of those the MaxBucket cap skipped.
type bucketStats struct {
	buckets  int
	oversize int
}

// bandEntry is one record's membership in one band bucket. Sorting entries
// by (band, hash, rec) groups bucket members into contiguous runs.
type bandEntry struct {
	band int32
	hash uint64
	rec  int32
}

func bandEntryLess(a, b bandEntry) bool {
	if a.band != b.band {
		return a.band < b.band
	}
	if a.hash != b.hash {
		return a.hash < b.hash
	}
	return a.rec < b.rec
}

// sigSep separates attribute values inside the signature text — a byte
// that cannot occur in TSV data, so attribute boundaries stay visible to
// the trigram set.
const sigSep = 0x1f

// FNV-1a parameters, inlined so gram hashing needs no hash.Hash allocation
// (bit-identical to hash/fnv's New64a over the same bytes).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// trigramScratch is one worker's reusable signature state: the lowered
// signature text, its rune-start offsets, and the minhash/band-key buffers.
// Reusing it across records keeps the per-record signature computation at
// zero heap allocations steady-state (BenchmarkTrigramSignature).
type trigramScratch struct {
	text   []byte  // lowered signature text of the current record
	starts []int32 // byte offset of each rune start in text
	sig    []uint64
	keys   []uint64
}

// appendLower appends the lower-cased runes of s to the scratch text,
// recording rune starts. The byte output is identical to
// strings.ToLower(s): ASCII lowers in place, everything else maps through
// unicode.ToLower, and invalid UTF-8 bytes become U+FFFD — exactly the
// replacement strings.Map performs.
func (sc *trigramScratch) appendLower(s string) {
	for _, r := range s {
		sc.starts = append(sc.starts, int32(len(sc.text)))
		if r < utf8.RuneSelf {
			b := byte(r)
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			sc.text = append(sc.text, b)
		} else {
			sc.text = utf8.AppendRune(sc.text, unicode.ToLower(r))
		}
	}
}

// grow returns buf resized to n, reusing its backing array when possible.
func grow(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// bandKeysInto computes one record's band bucket keys into the scratch:
// minhash signature over the trigram set of the lowered signature text,
// then one FNV-1a fold per band of that band's rows. A record whose
// signature text yields no trigrams returns nil — blocking it would collide
// every empty record with every other. The returned slice aliases the
// scratch and is only valid until the next call.
func bandKeysInto(rec []string, attrs []int, bands, rows int, mul, add []uint64, sc *trigramScratch) []uint64 {
	sc.text = sc.text[:0]
	sc.starts = sc.starts[:0]
	for i, a := range attrs {
		if i > 0 {
			sc.starts = append(sc.starts, int32(len(sc.text)))
			sc.text = append(sc.text, sigSep)
		}
		sc.appendLower(strings.TrimSpace(rec[a]))
	}
	runes := len(sc.starts)
	if runes == 0 {
		return nil
	}
	nonSep := false
	for _, b := range sc.text {
		if b != sigSep {
			nonSep = true
			break
		}
	}
	if !nonSep {
		return nil
	}

	k := bands * rows
	sc.sig = grow(sc.sig, k)
	for i := range sc.sig {
		sc.sig[i] = ^uint64(0)
	}
	// Each trigram is three consecutive runes of the text (a text of at
	// most three runes is its own single gram — simil.QGrams semantics);
	// hash its bytes with FNV-1a and fold into the running minhashes.
	gram := func(lo, hi int32) {
		gh := uint64(fnvOffset64)
		for _, c := range sc.text[lo:hi] {
			gh ^= uint64(c)
			gh *= fnvPrime64
		}
		for i := 0; i < k; i++ {
			v := gh*mul[i] + add[i]
			if v < sc.sig[i] {
				sc.sig[i] = v
			}
		}
	}
	if runes <= 3 {
		gram(0, int32(len(sc.text)))
	} else {
		for i := 0; i+3 <= runes; i++ {
			hi := int32(len(sc.text))
			if i+3 < runes {
				hi = sc.starts[i+3]
			}
			gram(sc.starts[i], hi)
		}
	}

	sc.keys = grow(sc.keys, bands)
	for b := 0; b < bands; b++ {
		acc := uint64(1469598103934665603) // FNV-64 offset basis
		for r := 0; r < rows; r++ {
			v := sc.sig[b*rows+r]
			for s := 0; s < 64; s += 8 {
				acc ^= (v >> s) & 0xff
				acc *= 1099511628211
			}
		}
		sc.keys[b] = acc
	}
	return sc.keys
}

// minhashParams derives the k pairwise-independent hash multipliers and
// offsets from the seed via a splitmix64 stream (deterministic, no global
// state).
func minhashParams(k int, seed uint64) (mul, add []uint64) {
	mul = make([]uint64, k)
	add = make([]uint64, k)
	state := seed ^ 0x9e3779b97f4a7c15
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < k; i++ {
		mul[i] = next() | 1 // odd, so multiplication permutes Z/2^64
		add[i] = next()
	}
	return mul, add
}

// trigramSeq is the sequential reference blocker: per-record band keys,
// map-grouped buckets scanned in sorted key order, pairs emitted per
// bucket in ascending member order.
func trigramSeq(ds *dedup.Dataset, tc TrigramConfig) ([]dedup.Pair, bucketStats) {
	attrs := tc.attrs(ds)
	bands, rows := tc.bands(), tc.rows()
	mul, add := minhashParams(bands*rows, tc.Seed)
	type bucketKey struct {
		band int32
		hash uint64
	}
	buckets := map[bucketKey][]int32{}
	sc := &trigramScratch{}
	for i, rec := range ds.Records {
		for b, h := range bandKeysInto(rec, attrs, bands, rows, mul, add, sc) {
			k := bucketKey{int32(b), h}
			buckets[k] = append(buckets[k], int32(i))
		}
	}
	keys := make([]bucketKey, 0, len(buckets))
	for k, members := range buckets {
		if len(members) >= 2 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(x, y int) bool {
		if keys[x].band != keys[y].band {
			return keys[x].band < keys[y].band
		}
		return keys[x].hash < keys[y].hash
	})
	var st bucketStats
	maxBucket := tc.maxBucket()
	var out []dedup.Pair
	for _, k := range keys {
		members := buckets[k]
		st.buckets++
		if len(members) > maxBucket {
			st.oversize++
			continue
		}
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				out = append(out, dedup.Pair{I: int(members[x]), J: int(members[y])})
			}
		}
	}
	return out, st
}

// trigramParts is the sharded banding blocker up to pair emission: band
// entries are computed into an index-addressed slice (one fixed stride per
// record), compacted in index order, chunk-sorted and k-way merged under
// the (band, hash, rec) total order, and bucket runs are scanned on the
// calling goroutine with pair emission sharded per run range. The result
// is the per-worker emission parts — together the blocker's pair multiset,
// trigramSeq's; GenerateStream sorts each part into one run of its merge,
// so the combined slice is never built.
func trigramParts(ds *dedup.Dataset, tc TrigramConfig, workers int) ([][]dedup.Pair, bucketStats) {
	n := len(ds.Records)
	if n == 0 {
		return nil, bucketStats{}
	}
	attrs := tc.attrs(ds)
	bands, rows := tc.bands(), tc.rows()
	mul, add := minhashParams(bands*rows, tc.Seed)

	// Stage 1: per-record band keys, index-addressed (records with no
	// trigrams leave their stride marked invalid with rec == -1). Each
	// worker range reuses one trigramScratch, so the per-record signature
	// computation allocates nothing steady-state.
	entries := make([]bandEntry, n*bands)
	parallelRanges(n, workers, func(lo, hi int) {
		sc := &trigramScratch{}
		for i := lo; i < hi; i++ {
			keys := bandKeysInto(ds.Records[i], attrs, bands, rows, mul, add, sc)
			for b := 0; b < bands; b++ {
				e := &entries[i*bands+b]
				if keys == nil {
					e.rec = -1
					continue
				}
				e.band, e.hash, e.rec = int32(b), keys[b], int32(i)
			}
		}
	})
	valid := entries[:0]
	for _, e := range entries {
		if e.rec >= 0 {
			valid = append(valid, e)
		}
	}

	// Stage 2: sort entries under the total order so bucket members form
	// contiguous runs.
	sortChunks(valid, workers, bandEntryLess)

	// Stage 3: scan runs into buckets, then emit pairs per bucket with the
	// bucket list sharded across workers (outputs concatenated in bucket
	// order).
	type run struct{ lo, hi int }
	var runs []run
	var st bucketStats
	maxBucket := tc.maxBucket()
	for lo := 0; lo < len(valid); {
		hi := lo + 1
		for hi < len(valid) && valid[hi].band == valid[lo].band && valid[hi].hash == valid[lo].hash {
			hi++
		}
		if hi-lo >= 2 {
			st.buckets++
			if hi-lo > maxBucket {
				st.oversize++
			} else {
				runs = append(runs, run{lo, hi})
			}
		}
		lo = hi
	}

	nr := len(runs)
	if nr == 0 {
		return nil, st
	}
	rw := workers
	if rw > nr {
		rw = nr
	}
	parts := make([][]dedup.Pair, rw)
	var wg sync.WaitGroup
	for w := 0; w < rw; w++ {
		lo := w * nr / rw
		hi := (w + 1) * nr / rw
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var part []dedup.Pair
			for _, r := range runs[lo:hi] {
				members := valid[r.lo:r.hi]
				for x := 0; x < len(members); x++ {
					for y := x + 1; y < len(members); y++ {
						part = append(part, dedup.Pair{I: int(members[x].rec), J: int(members[y].rec)})
					}
				}
			}
			parts[w] = part
		}(w, lo, hi)
	}
	wg.Wait()
	return parts, st
}
