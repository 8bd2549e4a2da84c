package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/voter"
)

// The parallel ingest pipeline (the scalability path for register-sized
// snapshot files, §5's "hundreds of gigabytes"):
//
//	chunker -> decode workers -> sequencer -> cluster shards -> merge
//
// The chunker slices the file into line-aligned blocks; a worker pool
// decodes blocks into rows and computes the (expensive) removal-mode MD5
// hash per row; a sequencer restores input order and routes each row to the
// shard owning its NCID; each shard applies rows to a disjoint slice of the
// cluster map through the same applyRow used by the sequential Import. The
// only coordination is the work queues, mirroring UpdateScores.
// Because every shard sees its rows in input-row order and the merge sorts
// new clusters by first-seen row index, the result is identical to a
// sequential import for any worker count.

// defaultChunkBytes is the line-aligned block size of the chunked reader.
const defaultChunkBytes = 256 << 10

// ingestBlock is one line-aligned slice of the input file.
type ingestBlock struct {
	seq      int // block sequence number, for reordering after decode
	firstRow int // zero-based data-row index of the block's first line
	data     []byte
}

// ingestRow is one decoded, hashed row with its routing metadata.
type ingestRow struct {
	rec   voter.Record
	ncid  string
	hash  voter.Hash
	row   int // zero-based data-row index in the file
	shard int // owning shard; -1 for rows without an NCID
}

// decodedBlock is one decode worker's output for one block. On err the rows
// slice holds exactly the rows preceding the failing line, so the partial
// dataset state on error matches the sequential reader's.
type decodedBlock struct {
	seq  int
	rows []ingestRow
	err  error
}

// shardBatch carries one block's rows of one shard, in input order.
type shardBatch struct {
	date string
	rows []ingestRow
}

// createdCluster is a cluster first seen during this import, tagged with the
// input row that introduced it so the merge can restore first-seen order.
type createdCluster struct {
	row  int
	ncid string
	c    *Cluster
}

// shardResult is what one cluster-builder shard hands to the merge step.
type shardResult struct {
	created    []createdCluster
	newRecords int
	newObjects int
	removed    int64  // duplicate rows dropped by the removal mode
	dl         *Delta // shard-local delta bookkeeping; nil on plain imports
}

// importReaderParallel runs the pipeline over one snapshot stream. A non-nil
// dl turns on delta bookkeeping: each shard classifies its rows against the
// cluster's pre-apply state into a shard-local Delta (NCIDs are disjoint
// across shards, so the per-shard sets merge without overlap) that is
// absorbed into dl after the shards drain.
func (d *Dataset) importReaderParallel(r io.Reader, opts IngestOptions, dl *Delta) (ImportStats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return d.importReaderSequential(r, dl)
	}
	chunkBytes := opts.ChunkBytes
	if chunkBytes <= 0 {
		chunkBytes = defaultChunkBytes
	}
	hm := d.Mode.hashMode()
	version := d.currentVersion()
	nshards := workers

	br := bufio.NewReaderSize(r, 64<<10)
	if err := readIngestHeader(br); err != nil {
		return ImportStats{}, err
	}

	// Stall counters (ns blocked on queues, per stage) for the observer.
	var stallRead, stallDecode, stallRoute, stallBuild atomic.Int64

	blocks := make(chan ingestBlock, workers*2)
	decoded := make(chan decodedBlock, workers*2)
	done := make(chan struct{})
	var closeDone sync.Once
	cancel := func() { closeDone.Do(func() { close(done) }) }
	defer cancel()

	// Stage 1: chunker. readErr is written before blocks closes, so the
	// sequencer (which outlives the channel) reads it race-free.
	var readErr error
	go func() {
		defer close(blocks)
		readErr = readBlocks(br, chunkBytes, func(b ingestBlock) bool {
			t := time.Now()
			select {
			case blocks <- b:
				stallRead.Add(int64(time.Since(t)))
				return true
			case <-done:
				return false
			}
		})
	}()

	// Stage 2: decode + hash workers.
	var dwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			for b := range blocks {
				db := decodeBlock(b, hm, nshards)
				t := time.Now()
				select {
				case decoded <- db:
					stallDecode.Add(int64(time.Since(t)))
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		dwg.Wait()
		close(decoded)
	}()

	// Stage 4 (started before 3 feeds it): cluster shards, each owning the
	// NCIDs that hash onto it.
	shardChs := make([]chan shardBatch, nshards)
	results := make([]shardResult, nshards)
	var swg sync.WaitGroup
	for s := 0; s < nshards; s++ {
		shardChs[s] = make(chan shardBatch, 4)
		var shardDl *Delta
		if dl != nil {
			shardDl = dl.sibling()
		}
		swg.Add(1)
		go func(si int, sdl *Delta) {
			defer swg.Done()
			results[si] = d.buildShard(shardChs[si], version, &stallBuild, sdl)
		}(s, shardDl)
	}

	// Stage 3: sequencer, on the calling goroutine. Restores block order,
	// counts rows, fixes the snapshot date from the first row and routes
	// rows to their shards; the first error stops routing (and the
	// upstream stages) but the channel is drained to completion.
	var (
		next     int
		pending  = map[int]decodedBlock{}
		rowsSeen int
		date     string
		dateSet  bool
		firstErr error
	)
	route := func(db decodedBlock) {
		if firstErr != nil {
			return
		}
		if !dateSet && len(db.rows) > 0 {
			date = db.rows[0].rec.SnapshotDate()
			dateSet = true
		}
		rowsSeen += len(db.rows)
		perShard := make([][]ingestRow, nshards)
		for _, ir := range db.rows {
			if ir.shard >= 0 {
				perShard[ir.shard] = append(perShard[ir.shard], ir)
			}
		}
		t := time.Now()
		for si, rows := range perShard {
			if len(rows) > 0 {
				shardChs[si] <- shardBatch{date: date, rows: rows}
			}
		}
		stallRoute.Add(int64(time.Since(t)))
		if db.err != nil {
			firstErr = db.err
			cancel()
		}
	}
	for db := range decoded {
		pending[db.seq] = db
		for {
			b, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			route(b)
		}
	}
	for _, ch := range shardChs {
		close(ch)
	}
	swg.Wait()

	if firstErr == nil && readErr != nil {
		firstErr = readErr
	}

	// Merge: apply shard results deterministically — new clusters in
	// first-seen input order, statistics as plain sums.
	var (
		created    []createdCluster
		newRecords int
		newObjects int
		removed    int64
	)
	for _, res := range results {
		created = append(created, res.created...)
		newRecords += res.newRecords
		newObjects += res.newObjects
		removed += res.removed
		if dl != nil && res.dl != nil {
			dl.absorb(res.dl)
		}
	}
	sort.Slice(created, func(i, j int) bool { return created[i].row < created[j].row })
	for _, cc := range created {
		d.clusters[cc.ncid] = cc.c
		d.order = append(d.order, cc.ncid)
	}
	d.totalRows += rowsSeen

	if o := opts.Observer; o != nil {
		o.AddN("ingest_rows_decoded", int64(rowsSeen))
		o.AddN("ingest_records_added", int64(newRecords))
		o.AddN("ingest_new_objects", int64(newObjects))
		o.AddN("ingest_duplicates_removed", removed)
		o.AddN("ingest_stall_read_ms", stallRead.Load()/int64(time.Millisecond))
		o.AddN("ingest_stall_decode_ms", stallDecode.Load()/int64(time.Millisecond))
		o.AddN("ingest_stall_route_ms", stallRoute.Load()/int64(time.Millisecond))
		o.AddN("ingest_stall_build_ms", stallBuild.Load()/int64(time.Millisecond))
	}

	if firstErr != nil {
		// Same contract as the sequential file import: rows before the
		// failure are applied, no import round is recorded.
		return ImportStats{}, firstErr
	}
	imp := d.BeginImport(date)
	imp.st.Rows = rowsSeen
	imp.st.NewRecords = newRecords
	imp.st.NewObjects = newObjects
	return imp.Close(), nil
}

// buildShard consumes one shard's batches and applies them to the clusters
// the shard owns. Pre-existing clusters are looked up in d.clusters (which
// no goroutine mutates during the import); new ones are recorded with their
// first-seen row for the ordered merge. A non-nil dl (shard-local) records
// the delta classification of every row before the shared applyRow mutation
// runs, exactly like the sequential addTracked.
func (d *Dataset) buildShard(ch <-chan shardBatch, version int, stall *atomic.Int64, dl *Delta) shardResult {
	res := shardResult{dl: dl}
	owned := map[string]*Cluster{}
	for {
		t := time.Now()
		b, ok := <-ch
		stall.Add(int64(time.Since(t)))
		if !ok {
			return res
		}
		for _, ir := range b.rows {
			c, have := owned[ir.ncid]
			if !have {
				if c, have = d.clusters[ir.ncid]; !have {
					c = newCluster(ir.ncid)
					res.created = append(res.created, createdCluster{row: ir.row, ncid: ir.ncid, c: c})
					res.newObjects++
				}
				owned[ir.ncid] = c
			}
			if dl != nil {
				touch, grow := rowChanges(c, ir.hash, b.date, d.Mode)
				dl.note(c, touch, grow)
			}
			if applyRow(c, ir.rec, ir.hash, d.Mode, version, b.date) {
				res.newRecords++
			} else if d.Mode != RemoveNone {
				res.removed++
			}
		}
	}
}

// readIngestHeader consumes and validates the header line, with the same
// errors and line-length limit as the sequential scanner.
func readIngestHeader(br *bufio.Reader) error {
	line, err := br.ReadString('\n')
	if err != nil && err != io.EOF {
		return err
	}
	if line == "" {
		return fmt.Errorf("voter: empty TSV input, missing header")
	}
	if len(line) > voter.MaxLineBytes {
		return bufio.ErrTooLong
	}
	line = strings.TrimSuffix(line, "\n")
	line = strings.TrimSuffix(line, "\r")
	return voter.ParseHeader(line)
}

// readBlocks slices the remaining input into line-aligned blocks of roughly
// chunkBytes, tracking each block's first data-row index. A line with no
// newline within voter.MaxLineBytes fails with bufio.ErrTooLong exactly
// like the sequential scanner. emit returning false stops the read (the
// pipeline was cancelled).
func readBlocks(r io.Reader, chunkBytes int, emit func(ingestBlock) bool) error {
	seq, row := 0, 0
	var rem []byte
	for {
		buf := make([]byte, len(rem)+chunkBytes)
		copy(buf, rem)
		n, err := io.ReadFull(r, buf[len(rem):])
		buf = buf[:len(rem)+n]
		eof := err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !eof {
			return err
		}
		var data []byte
		if eof {
			data, rem = buf, nil
		} else {
			i := bytes.LastIndexByte(buf, '\n')
			if i < 0 {
				// No full line yet: the current line spans blocks.
				if len(buf) >= voter.MaxLineBytes {
					return bufio.ErrTooLong
				}
				rem = buf
				continue
			}
			data = buf[:i+1]
			rem = append([]byte(nil), buf[i+1:]...)
		}
		if len(data) > 0 {
			nrows := bytes.Count(data, []byte{'\n'})
			if data[len(data)-1] != '\n' {
				nrows++ // unterminated final line at EOF
			}
			if !emit(ingestBlock{seq: seq, firstRow: row, data: data}) {
				return nil
			}
			seq++
			row += nrows
		}
		if eof {
			return nil
		}
	}
}

// decodeBlock turns one block into rows: line split, column validation,
// NCID extraction, removal-mode hash and shard assignment. Line numbers in
// errors are 1-based file lines (the header is line 1), identical to the
// sequential scanner's.
func decodeBlock(b ingestBlock, hm voter.HashMode, nshards int) decodedBlock {
	db := decodedBlock{seq: b.seq}
	data := b.data
	if n := len(data); n > 0 && data[n-1] == '\n' {
		data = data[:n-1]
	}
	for i, ln := range strings.Split(string(data), "\n") {
		ln = strings.TrimSuffix(ln, "\r")
		if len(ln) >= voter.MaxLineBytes {
			db.err = bufio.ErrTooLong
			return db
		}
		rec, err := voter.DecodeRow(ln, b.firstRow+i+2)
		if err != nil {
			db.err = err
			return db
		}
		ir := ingestRow{rec: rec, row: b.firstRow + i, shard: -1}
		if ir.ncid = rec.NCID(); ir.ncid != "" {
			ir.hash = voter.HashRecord(rec, hm)
			ir.shard = shardOf(ir.ncid, nshards)
		}
		db.rows = append(db.rows, ir)
	}
	return db
}

// shardOf maps an NCID onto one of n shards (inline FNV-1a, allocation
// free). Every row of one NCID lands on the same shard, which is what makes
// the shards' cluster slices disjoint.
func shardOf(ncid string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(ncid); i++ {
		h ^= uint32(ncid[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}
