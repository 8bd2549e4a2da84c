package docstore

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/scanio"
)

// Buffer sizes of the JSON-lines codec. A cluster document embeds every
// record of the cluster, so single lines grow far past bufio's 64 KiB
// default; loadMaxLineBytes bounds them at 64 MiB. The limits live in
// internal/scanio next to the voter TSV reader's pair so the two
// line-oriented readers share one buffer geometry.
const (
	// saveBufferBytes sizes the buffered writer of flat saves.
	saveBufferBytes = 1 << 16
	// loadMaxLineBytes is the largest single document line a load accepts.
	loadMaxLineBytes = scanio.MaxDocLineBytes
)

// DB is a set of named collections with JSON-lines persistence. Each
// collection saves to <dir>/<name>.jsonl via an atomic write-then-rename, so
// a crash mid-save never corrupts a previously saved state. SaveParallelOpts
// writes the segmented format instead (see segment.go); Load reads both.
type DB struct {
	mu          sync.Mutex
	collections map[string]*Collection
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{collections: map[string]*Collection{}}
}

// Collection returns the named collection, creating it if necessary.
func (db *DB) Collection(name string) *Collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.collections[name]
	if !ok {
		c = NewCollection(name)
		db.collections[name] = c
	}
	return c
}

// CollectionNames returns the names of all collections, sorted.
func (db *DB) CollectionNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.collections))
	for n := range db.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Save persists every collection into dir (created if missing) as one flat
// .jsonl file each — the sequential baseline SaveParallelOpts is measured
// against. Any segmented state a previous SaveParallelOpts left for the same
// collections is removed once the flat file is in place, so the formats
// never coexist.
func (db *DB) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range db.CollectionNames() {
		if err := db.Collection(name).Save(filepath.Join(dir, name+".jsonl")); err != nil {
			return err
		}
		removeSegmentedState(dir, name)
	}
	return nil
}

// Load reads every collection in dir — flat or segmented — into a fresh
// database, decoding sequentially. It is LoadParallelOpts at one worker.
func Load(dir string) (*DB, error) {
	return LoadParallelOpts(dir, LoadOpts{Workers: 1})
}

// Save writes the collection as JSON lines (one document per line, in
// insertion order) using a temporary file and an atomic rename.
func (c *Collection) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, saveBufferBytes)
	var enc docEncoder
	var encodeErr error
	c.ForEach(func(d Document) bool {
		line, err := enc.encode(d)
		if err == nil {
			_, err = w.Write(line)
		}
		encodeErr = err
		return err == nil
	})
	if encodeErr == nil {
		encodeErr = w.Flush()
	}
	if err := f.Close(); encodeErr == nil {
		encodeErr = err
	}
	if encodeErr != nil {
		os.Remove(tmp)
		return encodeErr
	}
	return os.Rename(tmp, path)
}

// LoadFile appends the documents of a JSON-lines file into the collection.
func (c *Collection) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := scanio.NewScanner(f, loadMaxLineBytes)
	var dec docDecoder
	line := 0
	for sc.Scan() {
		line++
		d, err := dec.decode(sc.Bytes())
		if err != nil {
			return fmt.Errorf("docstore: %s line %d: %w", path, line, err)
		}
		if err := c.Insert(d); err != nil {
			return fmt.Errorf("docstore: %s line %d: %w", path, line, err)
		}
	}
	return sc.Err()
}
