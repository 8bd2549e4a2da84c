package provenance

// Counter names of the provenance_total family, reported to
// StampOpts.Observer and, for CounterServed, by the HTTP API.
const (
	// CounterStamps counts records written by Save.
	CounterStamps = "provenance_stamps"
	// CounterLinks counts chain links appended (1 per Save; the genesis
	// link of a fresh chain included).
	CounterLinks = "provenance_links"
	// CounterChainResets counts Saves that found a previous record but
	// could not extend it (malformed or self-inconsistent) and started a
	// fresh chain instead. A missing record is a plain genesis, not a
	// reset.
	CounterChainResets = "provenance_chain_resets"
	// CounterLeavesHashed counts segment leaves whose SHA-256 was computed
	// from bytes (fresh writes, or reused segments re-read because the
	// previous record did not cover them).
	CounterLeavesHashed = "provenance_leaves_hashed"
	// CounterLeavesReused counts leaves whose digest was carried over from
	// the previous record without re-reading the segment — the dirty-save
	// fast path.
	CounterLeavesReused = "provenance_leaves_reused"
	// CounterServed counts GET /v1/provenance responses carrying a record.
	CounterServed = "provenance_served"
)
