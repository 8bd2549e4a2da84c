package docstore

import (
	"fmt"
	"sync"
)

// Collection stores documents keyed by their "_id" field, preserving
// insertion order for scans and saves. All methods are safe for concurrent
// use.
type Collection struct {
	mu   sync.RWMutex
	name string
	docs []Document     // insertion order; nil slots after deletion
	byID map[string]int // _id -> slot
}

// newCollection returns an empty collection with the given name.
func newCollection(name string) *Collection {
	return &Collection{name: name, byID: map[string]int{}}
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Len returns the number of live documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.byID)
}

// Insert stores doc under its "_id" (which must be a non-empty string) and
// returns an error for duplicate or missing ids. The document is stored by
// reference; callers must not mutate it afterwards.
func (c *Collection) Insert(doc Document) error {
	id, ok := doc["_id"].(string)
	if !ok || id == "" {
		return fmt.Errorf("docstore: %s: document misses a string _id", c.name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byID[id]; dup {
		return fmt.Errorf("docstore: %s: duplicate _id %q", c.name, id)
	}
	c.byID[id] = len(c.docs)
	c.docs = append(c.docs, doc)
	return nil
}

// Get returns the document with the given id, or nil.
func (c *Collection) Get(id string) Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if slot, ok := c.byID[id]; ok {
		return c.docs[slot]
	}
	return nil
}

// Delete removes the document with the given id, returning whether it
// existed.
func (c *Collection) Delete(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.byID[id]
	if !ok {
		return false
	}
	c.docs[slot] = nil
	delete(c.byID, id)
	return true
}

// ForEach visits every live document in insertion order under the read
// lock. The callback must not mutate documents or call back into the
// collection.
func (c *Collection) ForEach(fn func(Document) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, doc := range c.docs {
		if doc == nil {
			continue
		}
		if !fn(doc) {
			return
		}
	}
}

// Docs returns the live documents in insertion order — the slice saves and
// whole-collection readers partition among workers. The documents are the
// stored ones, not copies: callers must not mutate them.
func (c *Collection) Docs() []Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	snap := make([]Document, 0, len(c.byID))
	for _, doc := range c.docs {
		if doc != nil {
			snap = append(snap, doc)
		}
	}
	return snap
}
