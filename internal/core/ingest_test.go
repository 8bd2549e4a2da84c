package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/synth"
	"repro/internal/voter"
)

// writeSnapshotFiles generates a small register and writes it as TSV files.
func writeSnapshotFiles(t *testing.T, seed int64, voters, years int) []string {
	t.Helper()
	cfg := synth.DefaultConfig(seed, voters)
	cfg.Snapshots = synth.Calendar(2008, years)
	paths, err := synth.WriteAll(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no snapshot files generated")
	}
	return paths
}

// importAllParallel imports every file with the given worker count.
func importAllParallel(t *testing.T, d *Dataset, paths []string, opts IngestOptions) []ImportStats {
	t.Helper()
	var stats []ImportStats
	for _, p := range paths {
		st, err := d.ImportSnapshotFileParallelOpts(p, opts)
		if err != nil {
			t.Fatalf("parallel import %s: %v", p, err)
		}
		stats = append(stats, st)
	}
	return stats
}

// TestParallelImportEquivalence is the contract of the pipeline: for any
// worker count the parallel import must produce a dataset byte-identical to
// the sequential one — clusters, order, hashes, import statistics, and the
// derived Table 1 / Table 2 rows. A deliberately small chunk size forces
// many blocks so reordering and shard routing are actually exercised.
func TestParallelImportEquivalence(t *testing.T) {
	paths := writeSnapshotFiles(t, 21, 180, 4)
	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for _, mode := range []RemovalMode{RemoveNone, RemoveExact, RemoveTrimmed, RemovePersonData} {
		seq := NewDataset(mode)
		var seqStats []ImportStats
		for _, p := range paths {
			st, err := seq.ImportSnapshotFile(p)
			if err != nil {
				t.Fatalf("sequential import %s: %v", p, err)
			}
			seqStats = append(seqStats, st)
		}
		seq.Publish()

		for _, workers := range workerCounts {
			par := NewDataset(mode)
			parStats := importAllParallel(t, par, paths, IngestOptions{Workers: workers, ChunkBytes: 1 << 12})
			par.Publish()

			if !reflect.DeepEqual(seqStats, parStats) {
				t.Errorf("mode %v workers %d: ImportStats differ\nseq %+v\npar %+v", mode, workers, seqStats, parStats)
			}
			if !reflect.DeepEqual(seq.YearlyStats(), par.YearlyStats()) {
				t.Errorf("mode %v workers %d: Table 1 rows differ", mode, workers)
			}
			if !reflect.DeepEqual(seq.Stats(0), par.Stats(0)) {
				t.Errorf("mode %v workers %d: Table 2 row differs", mode, workers)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("mode %v workers %d: datasets differ (clusters/order/metadata)", mode, workers)
			}
		}
	}
}

// TestParallelImportContinuesDataset covers the update process (Fig. 2): a
// second import round onto an already-published dataset must extend the
// pre-existing clusters identically on both paths.
func TestParallelImportContinuesDataset(t *testing.T) {
	paths := writeSnapshotFiles(t, 5, 120, 3)
	split := len(paths) / 2
	if split == 0 {
		split = 1
	}

	build := func(importRound func(d *Dataset, p string)) *Dataset {
		d := NewDataset(RemoveTrimmed)
		for _, p := range paths[:split] {
			importRound(d, p)
		}
		d.Publish()
		for _, p := range paths[split:] {
			importRound(d, p)
		}
		d.Publish()
		return d
	}

	seq := build(func(d *Dataset, p string) {
		if _, err := d.ImportSnapshotFile(p); err != nil {
			t.Fatal(err)
		}
	})
	par := build(func(d *Dataset, p string) {
		if _, err := d.ImportSnapshotFileParallelOpts(p, IngestOptions{Workers: 3, ChunkBytes: 1 << 12}); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(seq, par) {
		t.Error("continued datasets differ between sequential and parallel import")
	}
}

// makeTSV renders a snapshot file with n simple records and returns its raw
// bytes (for surgery) plus the records.
func makeTSV(t *testing.T, n int) []byte {
	t.Helper()
	snap := voter.Snapshot{Date: "2010-03-01"}
	for i := 0; i < n; i++ {
		r := voter.NewRecord()
		r.SetName("ncid", fmt.Sprintf("AA%06d", i%7))
		r.SetName("snapshot_dt", "2010-03-01")
		r.SetName("first_name", fmt.Sprintf("NAME%d", i))
		snap.Records = append(snap.Records, r)
	}
	var buf bytes.Buffer
	if err := voter.WriteTSV(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "VR_Snapshot_20100301.tsv")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestParallelImportErrorParity: a malformed line must produce the same
// error and the same partial dataset state as the sequential reader —
// rows before the bad line applied, no import round recorded.
func TestParallelImportErrorParity(t *testing.T) {
	data := makeTSV(t, 40)
	lines := strings.Split(string(data), "\n")
	lines[25] = "only\tthree\tcolumns" // line 26 of the file
	bad := []byte(strings.Join(lines, "\n"))
	p := writeTemp(t, bad)

	seq := NewDataset(RemoveTrimmed)
	_, seqErr := seq.ImportSnapshotFile(p)
	par := NewDataset(RemoveTrimmed)
	_, parErr := par.ImportSnapshotFileParallelOpts(p, IngestOptions{Workers: 4, ChunkBytes: 256})

	if seqErr == nil || parErr == nil {
		t.Fatalf("expected errors, got seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error mismatch:\nseq: %v\npar: %v", seqErr, parErr)
	}
	if !strings.Contains(parErr.Error(), "line 26") {
		t.Errorf("error does not name the failing line: %v", parErr)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("partial datasets after error differ")
	}
	if len(par.Imports()) != 0 {
		t.Errorf("failed import recorded a round: %+v", par.Imports())
	}
}

// TestParallelImportLongLine is the long-line regression test: a row far
// beyond bufio's 64 KiB default token limit must import on both paths, and
// a row beyond voter.MaxLineBytes must fail with bufio.ErrTooLong on both.
func TestParallelImportLongLine(t *testing.T) {
	long := makeTSVWithValue(t, strings.Repeat("X", 1<<20)) // 1 MiB value
	p := writeTemp(t, long)

	seq := NewDataset(RemoveTrimmed)
	if _, err := seq.ImportSnapshotFile(p); err != nil {
		t.Fatalf("sequential long-line import: %v", err)
	}
	par := NewDataset(RemoveTrimmed)
	if _, err := par.ImportSnapshotFileParallelOpts(p, IngestOptions{Workers: 3, ChunkBytes: 1 << 12}); err != nil {
		t.Fatalf("parallel long-line import: %v", err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("long-line datasets differ")
	}

	huge := makeTSVWithValue(t, strings.Repeat("X", voter.MaxLineBytes+1))
	hp := writeTemp(t, huge)
	if _, err := NewDataset(RemoveTrimmed).ImportSnapshotFile(hp); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("sequential over-limit line: got %v, want bufio.ErrTooLong", err)
	}
	if _, err := NewDataset(RemoveTrimmed).ImportSnapshotFileParallelOpts(hp, IngestOptions{Workers: 3, ChunkBytes: 1 << 12}); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("parallel over-limit line: got %v, want bufio.ErrTooLong", err)
	}
}

// makeTSVWithValue renders a 3-record snapshot whose middle record carries
// one oversized value.
func makeTSVWithValue(t *testing.T, v string) []byte {
	t.Helper()
	snap := voter.Snapshot{Date: "2010-03-01"}
	for i := 0; i < 3; i++ {
		r := voter.NewRecord()
		r.SetName("ncid", fmt.Sprintf("BB%06d", i))
		r.SetName("snapshot_dt", "2010-03-01")
		if i == 1 {
			r.SetName("street_name", v)
		}
		snap.Records = append(snap.Records, r)
	}
	var buf bytes.Buffer
	if err := voter.WriteTSV(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelImportEmptyAndHeaderOnly pins the edge-file behavior to the
// sequential reader's.
func TestParallelImportEmptyAndHeaderOnly(t *testing.T) {
	empty := writeTemp(t, nil)
	if _, err := NewDataset(RemoveTrimmed).ImportSnapshotFileParallelOpts(empty, IngestOptions{Workers: 4}); err == nil ||
		!strings.Contains(err.Error(), "missing header") {
		t.Errorf("empty file: got %v, want missing-header error", err)
	}

	headerOnly := makeTSV(t, 0)
	p := writeTemp(t, headerOnly)
	seq := NewDataset(RemoveTrimmed)
	seqSt, err := seq.ImportSnapshotFile(p)
	if err != nil {
		t.Fatal(err)
	}
	par := NewDataset(RemoveTrimmed)
	parSt, err := par.ImportSnapshotFileParallelOpts(p, IngestOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqSt, parSt) || !reflect.DeepEqual(seq, par) {
		t.Errorf("header-only file: stats/datasets differ: %+v vs %+v", seqSt, parSt)
	}
}

// countingObserver records ingest counters for assertions.
type countingObserver struct{ counts map[string]int64 }

func (o *countingObserver) AddN(name string, n int64) {
	if o.counts == nil {
		o.counts = map[string]int64{}
	}
	o.counts[name] += n
}

func TestParallelImportObserverCounters(t *testing.T) {
	data := makeTSV(t, 50) // 7 distinct NCIDs, heavy duplication
	p := writeTemp(t, data)
	obs := &countingObserver{}
	d := NewDataset(RemoveTrimmed)
	st, err := d.ImportSnapshotFileParallelOpts(p, IngestOptions{Workers: 4, ChunkBytes: 512, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.counts["ingest_rows_decoded"]; got != int64(st.Rows) {
		t.Errorf("rows_decoded = %d, want %d", got, st.Rows)
	}
	if got := obs.counts["ingest_records_added"]; got != int64(st.NewRecords) {
		t.Errorf("records_added = %d, want %d", got, st.NewRecords)
	}
	if got := obs.counts["ingest_new_objects"]; got != int64(st.NewObjects) {
		t.Errorf("new_objects = %d, want %d", got, st.NewObjects)
	}
	wantRemoved := int64(st.Rows - st.NewRecords)
	if got := obs.counts["ingest_duplicates_removed"]; got != wantRemoved {
		t.Errorf("duplicates_removed = %d, want %d", got, wantRemoved)
	}
	for _, stage := range []string{"read", "decode", "route", "build"} {
		if _, ok := obs.counts["ingest_stall_"+stage+"_ms"]; !ok {
			t.Errorf("missing stall counter for stage %s", stage)
		}
	}
}
