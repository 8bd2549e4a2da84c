package docstore

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/scanio"
)

// loadMaxLineBytes is the largest single document line a load accepts. A
// cluster document embeds every record of the cluster, so single lines grow
// far past bufio's 64 KiB default. The limit lives in internal/scanio next
// to the voter TSV reader's so the two line-oriented readers share one
// buffer geometry.
const loadMaxLineBytes = scanio.MaxDocLineBytes

// DB is a set of named collections with JSON-lines persistence.
// SaveParallelOpts is the one writer: segment files plus a manifest
// committed by an atomic rename (see segment.go), so a crash mid-save never
// corrupts a previously saved state. Load also reads the flat
// <dir>/<name>.jsonl layout earlier releases wrote.
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
