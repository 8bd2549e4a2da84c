package docstore

import "sync"

// SegmentCache memoizes decoded segments across loads of the same store
// directory: one entry per segment file, valid for the manifest's exact
// (file, bytes, CRC32) triple and document count. After a
// dirty-segment save rewrites only the touched segments, a reload through
// the cache re-reads and re-parses exactly those — every byte-identical
// segment resolves to its previously decoded documents, so the reload cost
// of a k%-changed delta import is O(k), matching the save. ncserve threads
// one cache through its SIGHUP reloads.
//
// A hit trusts the manifest the way the loader itself does: the triple
// identifies the segment's exact byte content (the CRC the save computed
// over the bytes it renamed into place), so the on-disk file is not re-read.
// Cached documents are shared by reference between every load that hits —
// callers must treat loaded documents as immutable (the read-only serving
// path qualifies; Collection.Update would write through into other
// generations). The zero value is not usable; NewSegmentCache constructs.
type SegmentCache struct {
	mu sync.Mutex
	m  map[string]cachedSegment // by file name: one generation per segment file
}

// cachedSegment is the decode of one exact segment generation.
type cachedSegment struct {
	bytes int64
	crc   uint32
	docs  []Document
}

// NewSegmentCache returns an empty cache, safe for concurrent use.
func NewSegmentCache() *SegmentCache {
	return &SegmentCache{m: map[string]cachedSegment{}}
}

// Len returns the number of cached segments.
func (sc *SegmentCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.m)
}

// lookup returns the cached documents for info, or nil when the file is
// unknown or cached in another generation.
func (sc *SegmentCache) lookup(info segmentInfo) []Document {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if e := sc.m[info.File]; e.bytes == info.Bytes && e.crc == info.CRC32 && len(e.docs) == info.Docs {
		return e.docs
	}
	return nil
}

// store remembers docs as the decode of info, replacing whatever generation
// of the same file was cached: a reload only ever sees the manifest's current
// triple, so an older entry would just pin memory.
func (sc *SegmentCache) store(info segmentInfo, docs []Document) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.m[info.File] = cachedSegment{info.Bytes, info.CRC32, docs}
}
