package voter

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The register is distributed as tab-separated files with a header row
// (§5: "The voter data is originally given as a set of TSV files").
// Values must not contain tabs or newlines; the synthesizer never produces
// them and the writer rejects them.

// WriteTSV writes the snapshot to w: a header row with the canonical
// attribute names followed by one row per record.
func WriteTSV(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	names := make([]string, NumAttributes)
	for i, a := range Attributes {
		names[i] = a.Name
	}
	if _, err := bw.WriteString(strings.Join(names, "\t") + "\n"); err != nil {
		return err
	}
	for ri, r := range s.Records {
		if len(r.Values) != NumAttributes {
			return fmt.Errorf("voter: record %d has %d values, want %d", ri, len(r.Values), NumAttributes)
		}
		for ci, v := range r.Values {
			if strings.ContainsAny(v, "\t\n\r") {
				return fmt.Errorf("voter: record %d column %s contains a tab or newline", ri, Attributes[ci].Name)
			}
			if ci > 0 {
				if err := bw.WriteByte('\t'); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TSV line limits, shared by the scanner below and the chunked import
// reader in internal/core so both accept and reject exactly the same
// inputs. A 90-attribute row with export padding easily exceeds
// bufio's 64 KiB default token limit, so the scanner always gets an
// explicit buffer: ScanBufferBytes up front, growing to MaxLineBytes.
const (
	// ScanBufferBytes is the initial scanner buffer size.
	ScanBufferBytes = 64 << 10
	// MaxLineBytes is the largest accepted TSV line; longer lines fail
	// with bufio.ErrTooLong on every read path.
	MaxLineBytes = 4 << 20
)

// ParseHeader validates one header line against the canonical schema: it
// must list exactly the canonical attribute names in canonical order.
func ParseHeader(text string) error {
	header := strings.Split(text, "\t")
	if len(header) != NumAttributes {
		return fmt.Errorf("voter: header has %d columns, want %d", len(header), NumAttributes)
	}
	for i, name := range header {
		if name != Attributes[i].Name {
			return fmt.Errorf("voter: header column %d is %q, want %q", i, name, Attributes[i].Name)
		}
	}
	return nil
}

// DecodeRow splits one data row into a Record, validating the column count.
// line is the 1-based line number of the row within its file (the header is
// line 1) and only feeds the error message.
func DecodeRow(text string, line int) (Record, error) {
	vals := strings.Split(text, "\t")
	if len(vals) != NumAttributes {
		return Record{}, fmt.Errorf("voter: line %d has %d columns, want %d", line, len(vals), NumAttributes)
	}
	return Record{Values: vals}, nil
}

// StreamTSV parses a snapshot from r row by row, invoking fn for every
// record without materializing the file — the path for register files too
// large to hold in memory. The header row must list exactly the canonical
// attribute names in canonical order. fn returning an error aborts the
// stream. The returned count is the number of rows delivered.
func StreamTSV(r io.Reader, fn func(Record) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, ScanBufferBytes), MaxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("voter: empty TSV input, missing header")
	}
	if err := ParseHeader(sc.Text()); err != nil {
		return 0, err
	}
	line := 1
	n := 0
	for sc.Scan() {
		line++
		rec, err := DecodeRow(sc.Text(), line)
		if err != nil {
			return n, err
		}
		if err := fn(rec); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}

// ReadTSV parses a snapshot from r into memory. The snapshot date is taken
// from the snapshot_dt column of the first record (all records of one file
// share it) or left empty for an empty file.
func ReadTSV(r io.Reader) (Snapshot, error) {
	var snap Snapshot
	if _, err := StreamTSV(r, func(rec Record) error {
		snap.Records = append(snap.Records, rec)
		return nil
	}); err != nil {
		return Snapshot{}, err
	}
	if len(snap.Records) > 0 {
		snap.Date = snap.Records[0].SnapshotDate()
	}
	return snap, nil
}

// SnapshotFileName returns the canonical file name for a snapshot date:
// VR_Snapshot_YYYYMMDD.tsv, mirroring the register's naming scheme.
func SnapshotFileName(date string) string {
	return "VR_Snapshot_" + strings.ReplaceAll(date, "-", "") + ".tsv"
}

// WriteSnapshotFile writes the snapshot to dir under its canonical name and
// returns the full path.
func WriteSnapshotFile(dir string, s Snapshot) (string, error) {
	path := filepath.Join(dir, SnapshotFileName(s.Date))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := WriteTSV(f, s); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// ReadSnapshotFile reads one snapshot file.
func ReadSnapshotFile(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	return ReadTSV(f)
}

// ListSnapshotFiles returns the snapshot files in dir sorted by file name
// (which sorts by snapshot date given the canonical naming).
func ListSnapshotFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "VR_Snapshot_*.tsv"))
	if err != nil {
		return nil, err
	}
	return matches, nil
}
