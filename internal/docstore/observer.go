package docstore

// Counter names of the docstore_pipeline_total family, reported to
// SaveOpts.Observer and LoadOpts.Observer: the segments, bytes and
// documents the segmented persistence layer wrote, read, reused or served
// from a SegmentCache.
const (
	CounterSegmentsWritten = "docstore_segments_written"
	CounterSegmentsRead    = "docstore_segments_read"
	// CounterSegmentsReused counts segments a dirty-segment save kept on disk
	// untouched; CounterDeltaFullRewrites counts dirty saves that had to fall
	// back to a full rewrite (missing/foreign manifest or changed layout).
	CounterSegmentsReused    = "docstore_segments_reused"
	CounterDeltaFullRewrites = "docstore_delta_full_rewrites"
	// CounterSegmentsCached counts segments a reload decoded from a
	// SegmentCache instead of re-reading and re-parsing the file.
	CounterSegmentsCached = "docstore_segments_cached"
	CounterBytesWritten   = "docstore_bytes_written"
	CounterBytesRead      = "docstore_bytes_read"
	CounterDocsWritten    = "docstore_docs_written"
	CounterDocsRead       = "docstore_docs_read"
)
