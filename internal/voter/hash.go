package voter

import (
	"bytes"
	"crypto/md5"
	"slices"
	"strings"
)

// Hash is the 128-bit MD5 digest of a record's relevant attribute values.
// The paper uses MD5 because a rare collision merely loses one duplicate
// record and "does not have severe consequences" (§4, footnote 6).
type Hash [md5.Size]byte

// HashMode selects which attributes participate in the record hash and thus
// which records count as (near-)exact duplicates (§4's four generation
// runs). In every mode the volatile meta and time-related attributes — the
// four dates (snapshot, load, registration, cancellation) and the age — are
// excluded from the concatenation, exactly as in the paper; the derived
// age_group and the bookkeeping voter_reg_num are excluded for the same
// reason.
type HashMode int

const (
	// HashExact hashes all relevant attributes verbatim (no trimming) —
	// the paper's "exact" removal run.
	HashExact HashMode = iota
	// HashTrimmed hashes all relevant attributes after removing leading
	// and trailing whitespace — the paper's "trimming" run.
	HashTrimmed
	// HashPersonData hashes only the person-group attributes, trimmed —
	// the paper's "person data" run.
	HashPersonData
)

// hashExcluded reports whether column i is excluded from hashing in every
// mode (§3.1.3 "Meta Data Attributes" and "Time-related Attributes").
func hashExcluded(i int) bool {
	switch i {
	case IdxSnapshotDate, IdxLoadDate, IdxRegistrDate, IdxCancellationDt,
		IdxAge, IdxAgeGroup, IdxVoterRegNum:
		return true
	}
	return false
}

// HashColumns returns the column indices included in the given mode's hash,
// in canonical order.
func HashColumns(mode HashMode) []int {
	var cols []int
	for i, a := range Attributes {
		if hashExcluded(i) {
			continue
		}
		if mode == HashPersonData && a.Group != GroupPerson {
			continue
		}
		cols = append(cols, i)
	}
	return cols
}

// A row's hash is one md5.Sum over, for each column of hashCols[mode], its
// value (TrimSpace'd unless HashExact) and hashSep — the unit separator, which
// no TSV value holds, so no two concatenations collide. HashRecord reads the
// values from a record's strings, RowScanner.Hash from a line's bytes.
var hashCols = [...][]int{
	HashExact:      HashColumns(HashExact),
	HashTrimmed:    HashColumns(HashTrimmed),
	HashPersonData: HashColumns(HashPersonData),
}

const hashSep = 0x1f

// HashRecord returns the record's MD5 hash under the given mode. In the
// trimmed and person-data modes the values are trimmed before hashing.
func HashRecord(r Record, mode HashMode) Hash {
	buf := make([]byte, 0, 1<<10)
	for _, i := range hashCols[mode] {
		v := r.Values[i]
		if mode != HashExact {
			v = strings.TrimSpace(v)
		}
		buf = append(append(buf, v...), hashSep)
	}
	return md5.Sum(buf)
}

// RowScanner splits TSV data rows in place and hashes them from their bytes,
// so a duplicate row is dropped without building a Record. Reused, it stops
// allocating once its buffers fit the longest row. The zero value is ready.
type RowScanner struct {
	line []byte
	tabs []int  // column i is line[tabs[i]+1 : tabs[i+1]]; tabs[0] is -1
	buf  []byte // hash input
}

// Scan splits line into its columns and validates the column count with
// DecodeRow's error, n being the 1-based line number. The scanner aliases
// line until the next Scan.
func (s *RowScanner) Scan(line []byte, n int) error {
	s.line, s.tabs = line, append(slices.Grow(s.tabs[:0], NumAttributes+1), -1)
	for off := 0; len(s.tabs) <= NumAttributes; {
		i := bytes.IndexByte(line[off:], '\t')
		if i < 0 {
			s.tabs = append(s.tabs, len(line))
			break
		}
		s.tabs = append(s.tabs, off+i)
		off += i + 1
	}
	if len(s.tabs) != NumAttributes+1 || s.tabs[NumAttributes] != len(line) {
		_, err := DecodeRow(string(line), n)
		return err
	}
	return nil
}

// Column returns column i of the scanned line, untrimmed, aliasing the line.
func (s *RowScanner) Column(i int) []byte { return s.line[s.tabs[i]+1 : s.tabs[i+1]] }

// Hash returns what HashRecord returns for the scanned row's record.
func (s *RowScanner) Hash(mode HashMode) Hash {
	buf := slices.Grow(s.buf[:0], len(s.line)+1) // values + one separator per column
	for _, i := range hashCols[mode] {
		v := s.Column(i)
		if mode != HashExact {
			v = bytes.TrimSpace(v)
		}
		buf = append(append(buf, v...), hashSep)
	}
	s.buf = buf
	return md5.Sum(buf)
}
