package docstore

import (
	"sort"
	"sync"
)

// DB is a set of named collections with JSON-lines persistence.
// SaveParallelOpts writes segment files plus a manifest committed by an
// atomic rename (see segment.go), so a crash mid-save never corrupts a
// previously saved state; LoadParallelOpts reads nothing else.
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
		c = newCollection(name)
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
