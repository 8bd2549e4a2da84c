// Package scanio centralizes the line-scanner buffer geometry shared by
// every line-oriented reader in the repo: the voter TSV codec (sequential
// StreamTSV and the chunked ingest reader in internal/core) and
// the docstore JSON-lines loader. Both families previously carried their
// own copies of the same two numbers; keeping them here means a future
// limit change cannot drift one consumer out of sync with the other, and
// the conformance harness (internal/testkit) exercises both consumers
// against the same long-line corpus.
package scanio

import (
	"bufio"
	"io"
)

const (
	// InitialBufferBytes is the scanner's up-front buffer. bufio's default
	// 64 KiB token limit is too small for a 90-attribute voter row with
	// export padding, let alone a cluster document, so every scanner in the
	// repo starts here and grows to its format's line cap.
	InitialBufferBytes = 64 << 10

	// MaxTSVLineBytes is the largest accepted voter TSV line; longer lines
	// fail with bufio.ErrTooLong on every read path (StreamTSV and the
	// chunked ingest alike).
	MaxTSVLineBytes = 4 << 20

	// MaxDocLineBytes is the largest single JSON-lines document the
	// docstore accepts. A cluster document embeds every record of its
	// cluster, so document lines grow far beyond TSV rows; 64 MiB bounds
	// them without admitting unbounded allocations from corrupt input.
	MaxDocLineBytes = 1 << 26
)

// NewScanner returns a line scanner over r sized for lines up to
// maxLineBytes: InitialBufferBytes up front, growing to the cap. Lines
// beyond the cap fail with bufio.ErrTooLong.
func NewScanner(r io.Reader, maxLineBytes int) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	initial := InitialBufferBytes
	if initial > maxLineBytes {
		initial = maxLineBytes
	}
	sc.Buffer(make([]byte, initial), maxLineBytes)
	return sc
}
