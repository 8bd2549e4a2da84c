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
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
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

// importReference imports one snapshot file the way the loop under test is
// judged: voter.ReadSnapshotFile (StreamTSV) into memory, then
// ImportSnapshot. It shares no reader code with the block loop.
func importReference(t *testing.T, d *Dataset, path string) ImportStats {
	t.Helper()
	snap, err := voter.ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("reference import %s: %v", path, err)
	}
	return d.ImportSnapshot(snap)
}

// importAll imports every file with the given options.
func importAll(t *testing.T, d *Dataset, paths []string, opts IngestOptions) []ImportStats {
	t.Helper()
	var stats []ImportStats
	for _, p := range paths {
		st, err := d.ImportSnapshotFileParallelOpts(p, opts)
		if err != nil {
			t.Fatalf("import %s at %d workers: %v", p, opts.Workers, err)
		}
		stats = append(stats, st)
	}
	return stats
}

// TestParallelImportEquivalence is the contract of the import loop: at any
// worker count, 1 included, it must produce a dataset identical to the
// reference import — clusters, order, hashes, import statistics, and the
// derived Table 1 / Table 2 rows. A deliberately small chunk size forces
// many blocks so reordering is actually exercised.
func TestParallelImportEquivalence(t *testing.T) {
	paths := writeSnapshotFiles(t, 21, 180, 4)
	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for _, mode := range []RemovalMode{RemoveNone, RemoveExact, RemoveTrimmed, RemovePersonData} {
		ref := NewDataset(mode)
		var refStats []ImportStats
		for _, p := range paths {
			refStats = append(refStats, importReference(t, ref, p))
		}
		ref.Publish()

		for _, workers := range workerCounts {
			got := NewDataset(mode)
			stats := importAll(t, got, paths, IngestOptions{Workers: workers, ChunkBytes: 1 << 12})
			got.Publish()

			if !reflect.DeepEqual(refStats, stats) {
				t.Errorf("mode %v workers %d: ImportStats differ\nref %+v\ngot %+v", mode, workers, refStats, stats)
			}
			if !reflect.DeepEqual(ref.YearlyStats(), got.YearlyStats()) {
				t.Errorf("mode %v workers %d: Table 1 rows differ", mode, workers)
			}
			if !reflect.DeepEqual(ref.Stats(0), got.Stats(0)) {
				t.Errorf("mode %v workers %d: Table 2 row differs", mode, workers)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("mode %v workers %d: datasets differ (clusters/order/metadata)", mode, workers)
			}
		}
	}
}

// TestParallelImportContinuesDataset covers the update process (Fig. 2): a
// second import round onto an already-published dataset must extend the
// pre-existing clusters exactly like the reference import does.
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

	ref := build(func(d *Dataset, p string) { importReference(t, d, p) })
	for _, workers := range []int{1, 3} {
		got := build(func(d *Dataset, p string) {
			importAll(t, d, []string{p}, IngestOptions{Workers: workers, ChunkBytes: 1 << 12})
		})
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers %d: continued dataset differs from the reference import", workers)
		}
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

// TestParallelImportErrorParity: a malformed line fails with
// voter.ReadSnapshotFile's error and leaves the same partial dataset at one
// worker and at four — rows before the bad line applied, no import round
// recorded.
func TestParallelImportErrorParity(t *testing.T) {
	data := makeTSV(t, 40)
	lines := strings.Split(string(data), "\n")
	lines[25] = "only\tthree\tcolumns" // line 26 of the file
	p := writeTemp(t, []byte(strings.Join(lines, "\n")))

	_, refErr := voter.ReadSnapshotFile(p)
	one := NewDataset(RemoveTrimmed)
	_, oneErr := one.ImportSnapshotFileParallelOpts(p, IngestOptions{Workers: 1, ChunkBytes: 256})
	four := NewDataset(RemoveTrimmed)
	_, fourErr := four.ImportSnapshotFileParallelOpts(p, IngestOptions{Workers: 4, ChunkBytes: 256})

	if refErr == nil || oneErr == nil || fourErr == nil {
		t.Fatalf("expected errors, got ref=%v 1=%v 4=%v", refErr, oneErr, fourErr)
	}
	if oneErr.Error() != refErr.Error() || fourErr.Error() != refErr.Error() {
		t.Errorf("error mismatch:\nref: %v\n1:   %v\n4:   %v", refErr, oneErr, fourErr)
	}
	if !strings.Contains(fourErr.Error(), "line 26") {
		t.Errorf("error does not name the failing line: %v", fourErr)
	}
	if !reflect.DeepEqual(one, four) {
		t.Error("partial datasets after error differ")
	}
	if one.TotalRows() != 24 || len(one.Imports()) != 0 || len(four.Imports()) != 0 {
		t.Errorf("partial state: %d rows applied, rounds %+v / %+v; want 24 rows, no round",
			one.TotalRows(), one.Imports(), four.Imports())
	}
}

// TestParallelImportLongLine is the long-line regression test: a row far
// beyond bufio's 64 KiB default token limit must import at any worker count,
// and a row beyond voter.MaxLineBytes must fail with bufio.ErrTooLong, as in
// voter.ReadSnapshotFile.
func TestParallelImportLongLine(t *testing.T) {
	p := writeTemp(t, makeTSVWithValue(t, strings.Repeat("X", 1<<20))) // 1 MiB value
	ref := NewDataset(RemoveTrimmed)
	importReference(t, ref, p)

	hp := writeTemp(t, makeTSVWithValue(t, strings.Repeat("X", voter.MaxLineBytes+1)))
	if _, err := voter.ReadSnapshotFile(hp); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("reference over-limit line: got %v, want bufio.ErrTooLong", err)
	}
	for _, workers := range []int{1, 3} {
		got := NewDataset(RemoveTrimmed)
		importAll(t, got, []string{p}, IngestOptions{Workers: workers, ChunkBytes: 1 << 12})
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers %d: long-line dataset differs from the reference", workers)
		}
		if _, err := NewDataset(RemoveTrimmed).ImportSnapshotFileParallelOpts(hp, IngestOptions{Workers: workers, ChunkBytes: 1 << 12}); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("workers %d over-limit line: got %v, want bufio.ErrTooLong", workers, err)
		}
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
// reference reader's.
func TestParallelImportEmptyAndHeaderOnly(t *testing.T) {
	empty := writeTemp(t, nil)
	_, refErr := voter.ReadSnapshotFile(empty)
	headerOnly := writeTemp(t, makeTSV(t, 0))
	ref := NewDataset(RemoveTrimmed)
	refSt := importReference(t, ref, headerOnly)
	for _, workers := range []int{1, 4} {
		if _, err := NewDataset(RemoveTrimmed).ImportSnapshotFileParallelOpts(empty, IngestOptions{Workers: workers}); err == nil ||
			refErr == nil || err.Error() != refErr.Error() {
			t.Errorf("workers %d empty file: got %v, want %v", workers, err, refErr)
		}
		got := NewDataset(RemoveTrimmed)
		st, err := got.ImportSnapshotFileParallelOpts(headerOnly, IngestOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refSt, st) || !reflect.DeepEqual(ref, got) {
			t.Errorf("workers %d header-only file: stats/datasets differ: %+v vs %+v", workers, refSt, st)
		}
	}
}

// TestParallelImportObserverCounters: the ingest counters are reported at
// every worker count, inline included, and agree with ImportStats.
func TestParallelImportObserverCounters(t *testing.T) {
	p := writeTemp(t, makeTSV(t, 50)) // 7 distinct NCIDs, heavy duplication
	for _, workers := range []int{1, 4} {
		m := obs.NewMetrics()
		st, err := NewDataset(RemoveTrimmed).ImportSnapshotFileParallelOpts(p, IngestOptions{Workers: workers, ChunkBytes: 512, Observer: m})
		if err != nil {
			t.Fatal(err)
		}
		counts := m.Snapshot().Counters
		for name, want := range map[string]int{
			"ingest_rows_decoded":       st.Rows,
			"ingest_records_added":      st.NewRecords,
			"ingest_new_objects":        st.NewObjects,
			"ingest_duplicates_removed": st.Rows - st.NewRecords,
		} {
			if got, ok := counts[name]; !ok || got != int64(want) {
				t.Errorf("workers %d: %s = %d (reported %v), want %d", workers, name, got, ok, want)
			}
		}
		var stalls []string
		for name := range counts {
			if strings.HasPrefix(name, "ingest_stall_") {
				stalls = append(stalls, name)
			}
		}
		sort.Strings(stalls)
		if want := []string{"ingest_stall_decode_ms", "ingest_stall_read_ms"}; !reflect.DeepEqual(stalls, want) {
			t.Errorf("workers %d: stall counters %v, want %v", workers, stalls, want)
		}
	}
}

// TestImportKnownRowsAllocateNothing: a row whose hash its cluster already
// has is dropped straight from the read block — no record, no string, no
// per-row allocation. Importing a register a second time makes every row
// such a row; the pass adds no record and stamps the snapshot dates exactly
// as the reference import does. A record's date list grows by doubling, so
// the stamps cost about one allocation per record per pass: the register is
// long (78 snapshots) and without life events, so each record recurs in
// every snapshot and the stamps stay well under the bound. Not parallel: it
// counts the process's allocations.
func TestImportKnownRowsAllocateNothing(t *testing.T) {
	cfg := synth.DefaultConfig(11, 1000)
	cfg.Snapshots = synth.Calendar(1971, 52)
	cfg.NewVoterRate, cfg.ReRegisterRate, cfg.MoveRate, cfg.MarryRate, cfg.DeregisterRate = 0, 0, 0, 0, 0
	cfg.DriftAt = nil
	paths, err := synth.WriteAll(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, ref := NewDataset(RemoveTrimmed), NewDataset(RemoveTrimmed)
	importAll(t, d, paths, IngestOptions{Workers: 1})
	for _, p := range paths {
		importReference(t, ref, p)
	}
	records := d.NumRecords()

	rows := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, st := range importAll(t, d, paths, IngestOptions{Workers: 1}) {
		rows += st.Rows
	}
	runtime.ReadMemStats(&after)
	for _, p := range paths {
		importReference(t, ref, p)
	}

	if per := float64(after.Mallocs-before.Mallocs) / float64(rows); per > 0.05 {
		t.Errorf("second pass: %.3f allocations per row over %d rows, want <= 0.05", per, rows)
	}
	if d.NumRecords() != records {
		t.Errorf("second pass added %d records", d.NumRecords()-records)
	}
	if !reflect.DeepEqual(ref, d) {
		t.Error("after the second pass the dataset differs from the reference import's")
	}
}

// TestImportRetainsNoBlocks: a kept record holds only its own line, never
// the read block it was decoded from, so the live heap of an imported
// dataset does not depend on the worker count. Not parallel: it measures
// the process heap.
func TestImportRetainsNoBlocks(t *testing.T) {
	paths := writeSnapshotFiles(t, 3, 300, 4)
	liveHeap := func() uint64 {
		// Two cycles: the first moves blockBufs' idle buffers to the
		// pool's victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	retained := func(workers int) uint64 {
		before := liveHeap()
		d := NewDataset(RemoveTrimmed)
		importAll(t, d, paths, IngestOptions{Workers: workers, ChunkBytes: 1 << 16})
		after := liveHeap()
		runtime.KeepAlive(d)
		return after - before
	}
	one, four := retained(1), retained(4)
	if float64(four) > 1.10*float64(one) {
		t.Errorf("live heap after import: %d B at 4 workers vs %d B at 1 (%.2fx, want <= 1.10x)",
			four, one, float64(four)/float64(one))
	}
}

// fuzzRow renders a data row of cols columns: ncid, a snapshot date and a
// name, each value wrapped in pad.
func fuzzRow(ncid, pad string, cols int) string {
	vals := make([]string, cols)
	for i := range vals {
		vals[i] = pad
	}
	vals[voter.IdxNCID] = ncid
	vals[voter.IdxSnapshotDate] = pad + "2010-03-01" + pad
	vals[voter.IdxLastName] = pad + "SMITH" + pad
	return strings.Join(vals, "\t")
}

// FuzzImportLines holds the block loop's in-place scanner and hasher to the
// reference reader: for any bytes after the canonical header, the import at
// one worker with small blocks gives the dataset ImportSnapshot builds from
// voter.ReadTSV, or fails with its error text, in every removal mode.
func FuzzImportLines(f *testing.F) {
	names := make([]string, voter.NumAttributes)
	for i, a := range voter.Attributes {
		names[i] = a.Name
	}
	header := strings.Join(names, "\t") + "\n"
	n := voter.NumAttributes
	for _, body := range []string{
		fuzzRow("AA1", "", n) + "\n" + fuzzRow("AA1", " ", n) + "\n",
		fuzzRow("AA1", "", n) + "\r\n" + fuzzRow("AA2", " ", n) + "\r\n",
		fuzzRow("\u00a0AA1\u0085", "\v", n) + "\n" + fuzzRow("\vAA1", "\u00a0", n) + "\n" + fuzzRow("AA1", "\u0085", n) + "\n",
		fuzzRow("AA1", "\x85", n) + "\n" + fuzzRow("AA1", "\xc2", n) + "\n", // lone bytes of U+0085: not space
		fuzzRow("  \v ", "", n) + "\n" + fuzzRow("", " ", n) + "\n",
		fuzzRow("AA1", "", n) + "\n" + fuzzRow("AA1", "", n-1) + "\n",
		fuzzRow("AA1", "", n) + "\n" + fuzzRow("AA1", "", n+1) + "\n",
		fuzzRow("AA1", "", n) + "\n" + fuzzRow("AA1", " ", n),
		"\n",
		"",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		input := append([]byte(header), body...)
		snap, refErr := voter.ReadTSV(bytes.NewReader(input))
		for _, mode := range []RemovalMode{RemoveNone, RemoveExact, RemoveTrimmed, RemovePersonData} {
			got := NewDataset(mode)
			_, err := got.importReader(bytes.NewReader(input), IngestOptions{Workers: 1, ChunkBytes: 128}, nil)
			if err != nil || refErr != nil {
				if err == nil || refErr == nil || err.Error() != refErr.Error() {
					t.Fatalf("mode %v: import error %v, reference error %v", mode, err, refErr)
				}
				continue
			}
			ref := NewDataset(mode)
			ref.ImportSnapshot(snap)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("mode %v: dataset differs from the reference import", mode)
			}
		}
	})
}
