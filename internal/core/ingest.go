package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counter"
	"repro/internal/voter"
)

// The file import is one loop (§4: read a row, hash its relevant attributes,
// drop it when its cluster already has that hash), run over line-aligned
// blocks of the snapshot file:
//
//	chunker -> decode pool -> in-order apply
//
// Decode scans each line in place (column count, trimmed NCID, removal-mode
// MD5 straight from the line's bytes) and builds nothing; it runs inline at
// one worker and on a pool of goroutines otherwise. Apply runs on the calling
// goroutine in input order, so the dataset is the same at any worker count,
// and builds a record only for a row it keeps: most rows are duplicates, and a
// dropped row allocates nothing. A kept record copies its line, so it holds
// only its own bytes; the block buffer is recycled once apply is done with it.

// defaultChunkBytes is the line-aligned block size of the reader.
const defaultChunkBytes = 256 << 10

// blockBufs recycles block buffers across blocks and imports: once a block
// is applied, no row refers to its buffer.
var blockBufs sync.Pool

// IngestOptions tunes ImportSnapshotFileParallelOpts. The zero value of a
// field selects the default documented on it.
type IngestOptions struct {
	// Workers is the decode-pool size; <= 0 selects GOMAXPROCS, 1 decodes
	// inline on the calling goroutine.
	Workers int
	// ChunkBytes is the line-aligned read block size; <= 0 selects 256 KiB.
	ChunkBytes int
	// Observer, when non-nil, receives the ingest_* counters.
	Observer counter.Sink
}

// ImportSnapshotFileParallelOpts streams one TSV snapshot file through the
// removal mode. The resulting dataset and ImportStats are the same for any
// opts.Workers. On a malformed row the rows before it stay applied and no
// import round is recorded.
func (d *Dataset) ImportSnapshotFileParallelOpts(path string, opts IngestOptions) (ImportStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return ImportStats{}, err
	}
	defer f.Close()
	return d.importReader(f, opts, nil)
}

// ingestBlock is one line-aligned slice of the input file.
type ingestBlock struct {
	seq      int // block sequence number, for reordering after decode
	firstRow int // zero-based data-row index of the block's first line
	rows     int // lines in the block
	data     []byte
}

// ingestRow is one row on its way to apply: trimmed NCID, removal-mode hash
// and record — given (ImportSnapshot), or built from line (file line n) only
// if the row is kept. A file row's line and ncid alias the read block.
type ingestRow struct {
	rec  voter.Record
	line []byte
	n    int
	ncid []byte
	hash voter.Hash
}

// decodedBlock is the scanned rows of one block, which alias data, its read
// buffer. date is the snapshot date of the file's first row (block 0 only).
// On err the rows are exactly those preceding the failing line.
type decodedBlock struct {
	seq  int
	data []byte
	date string
	rows []ingestRow
	err  error
}

// importReader is the file-import loop of ImportSnapshotFileParallelOpts and,
// with a non-nil dl that classifies every row before it is applied,
// ApplySnapshotDelta.
func (d *Dataset) importReader(r io.Reader, opts IngestOptions, dl *Delta) (ImportStats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunkBytes := opts.ChunkBytes
	if chunkBytes <= 0 {
		chunkBytes = defaultChunkBytes
	}
	br := bufio.NewReader(r) // small: block reads bypass its buffer
	if err := readIngestHeader(br); err != nil {
		return ImportStats{}, err
	}
	rd := &blockReader{r: br, chunk: chunkBytes}
	hm := d.Mode.hashMode()

	imp := d.beginImport("")
	apply := func(db decodedBlock) error {
		if db.seq == 0 {
			imp.st.Snapshot = db.date
		}
		for i := range db.rows {
			imp.addHashed(&db.rows[i], dl)
		}
		blockBufs.Put(db.data)
		return db.err
	}
	var stallRead, stallDecode atomic.Int64
	var err error
	if workers == 1 {
		var sc voter.RowScanner
		var rows []ingestRow
		for err == nil {
			b, ok, rerr := rd.next()
			if rerr != nil || !ok {
				err = rerr
				break
			}
			db := decodeBlock(b, &sc, hm, rows[:0])
			err = apply(db)
			rows = db.rows
		}
	} else {
		err = decodePool(rd, hm, workers, &stallRead, &stallDecode, apply)
	}

	o := opts.Observer
	counter.Add(o, "ingest_rows_decoded", int64(imp.st.Rows))
	counter.Add(o, "ingest_records_added", int64(imp.st.NewRecords))
	counter.Add(o, "ingest_new_objects", int64(imp.st.NewObjects))
	counter.Add(o, "ingest_duplicates_removed", int64(imp.removed))
	counter.Add(o, "ingest_stall_read_ms", stallRead.Load()/int64(time.Millisecond))
	counter.Add(o, "ingest_stall_decode_ms", stallDecode.Load()/int64(time.Millisecond))
	if err != nil {
		return ImportStats{}, err
	}
	return imp.close(), nil
}

// decodePool decodes blocks on workers goroutines while the chunker reads
// ahead, and hands the decoded blocks to apply in input order on the calling
// goroutine. The first error stops the chunker and the pool; they are
// drained, so no goroutine outlives the call.
func decodePool(rd *blockReader, hm voter.HashMode, workers int, stallRead, stallDecode *atomic.Int64, apply func(decodedBlock) error) error {
	// Two blocks per worker on each queue let the chunker read ahead and the
	// pool run on while a slow block holds up the in-order apply.
	blocks := make(chan ingestBlock, workers*2)
	decoded := make(chan decodedBlock, workers*2)
	done := make(chan struct{})

	// readErr is written before blocks closes, so it is read race-free once
	// decoded has closed.
	var readErr error
	go func() {
		defer close(blocks)
		for {
			b, ok, err := rd.next()
			if err != nil || !ok {
				readErr = err
				return
			}
			t := time.Now()
			select {
			case blocks <- b:
				stallRead.Add(int64(time.Since(t)))
			case <-done:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc voter.RowScanner
			for b := range blocks {
				db := decodeBlock(b, &sc, hm, nil)
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
		wg.Wait()
		close(decoded)
	}()

	pending := map[int]decodedBlock{}
	next := 0
	var err error
	for db := range decoded {
		if err != nil {
			continue
		}
		pending[db.seq] = db
		for err == nil {
			b, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if err = apply(b); err != nil {
				close(done)
			}
		}
	}
	if err == nil {
		err = readErr
	}
	return err
}

// readIngestHeader consumes and validates the header line, with the same
// errors and line-length limit as voter.StreamTSV.
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

// blockReader slices the input after the header into line-aligned blocks of
// about chunk bytes, numbering each block and its first data row.
type blockReader struct {
	r        io.Reader
	chunk    int
	rem      []byte // the partial last line of the previous read
	seq, row int
	eof      bool
}

// next returns the next block, read into a buffer from blockBufs; ok is
// false at the end of the input. A line with no newline within
// voter.MaxLineBytes fails with bufio.ErrTooLong, as in voter.StreamTSV.
func (br *blockReader) next() (ingestBlock, bool, error) {
	buf, _ := blockBufs.Get().([]byte)
	for !br.eof {
		// A line longer than half a chunk doubles the read, so a long
		// line is copied a bounded number of times per byte.
		n := max(br.chunk, 2*len(br.rem))
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		copy(buf, br.rem)
		m, err := io.ReadFull(br.r, buf[len(br.rem):])
		buf = buf[:len(br.rem)+m]
		br.rem = br.rem[:0]
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			br.eof = true
		case err != nil:
			return ingestBlock{}, false, err
		default:
			i := bytes.LastIndexByte(buf, '\n')
			if i < 0 {
				// No full line yet: the current line spans blocks.
				if len(buf) >= voter.MaxLineBytes {
					return ingestBlock{}, false, bufio.ErrTooLong
				}
				br.rem, buf = buf, br.rem
				continue
			}
			br.rem = append(br.rem, buf[i+1:]...)
			buf = buf[:i+1]
		}
		if len(buf) == 0 {
			continue
		}
		rows := bytes.Count(buf, []byte{'\n'})
		if buf[len(buf)-1] != '\n' {
			rows++ // unterminated final line at EOF
		}
		b := ingestBlock{seq: br.seq, firstRow: br.row, rows: rows, data: buf}
		br.seq++
		br.row += rows
		return b, true, nil
	}
	blockBufs.Put(buf)
	return ingestBlock{}, false, nil
}

// decodeBlock appends the rows of one block to rows: column validation, the
// trimmed NCID and the removal-mode hash, read from the block's bytes by sc.
// The rows alias the block. Line numbers in errors are 1-based file lines
// (the header is line 1), as voter.StreamTSV reports them.
func decodeBlock(b ingestBlock, sc *voter.RowScanner, hm voter.HashMode, rows []ingestRow) decodedBlock {
	db := decodedBlock{seq: b.seq, data: b.data}
	rows = slices.Grow(rows, b.rows)
	data := b.data
	for n := b.firstRow + 2; len(data) > 0; n++ {
		ln := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			ln, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if k := len(ln); k > 0 && ln[k-1] == '\r' {
			ln = ln[:k-1]
		}
		if len(ln) >= voter.MaxLineBytes {
			db.err = bufio.ErrTooLong
			break
		}
		if err := sc.Scan(ln, n); err != nil {
			db.err = err
			break
		}
		if n == 2 {
			db.date = string(bytes.TrimSpace(sc.Column(voter.IdxSnapshotDate)))
		}
		ir := ingestRow{line: ln, n: n, ncid: bytes.TrimSpace(sc.Column(voter.IdxNCID))}
		if len(ir.ncid) > 0 {
			ir.hash = sc.Hash(hm)
		}
		rows = append(rows, ir)
	}
	db.rows = rows
	return db
}
