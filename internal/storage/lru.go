package storage

// lruCache is a byte-budgeted LRU cache of string keys with per-entry sizes.
// It is hand-rolled (intrusive doubly-linked list + map) so eviction order
// and memory accounting are fully deterministic.
type lruCache struct {
	capacity int64
	used     int64
	entries  map[string]*lruEntry
	head     *lruEntry // most recently used
	tail     *lruEntry // least recently used
}

type lruEntry struct {
	key        string
	size       int64
	prev, next *lruEntry
}

func newLRU(capacity int64) *lruCache {
	return &lruCache{capacity: capacity, entries: map[string]*lruEntry{}}
}

// Contains reports whether key is cached and, if so, marks it most recently
// used.
func (c *lruCache) Contains(key string) bool {
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.moveToFront(e)
	return true
}

// Peek reports presence without touching recency.
func (c *lruCache) Peek(key string) bool {
	_, ok := c.entries[key]
	return ok
}

// Add inserts or refreshes key with the given size, evicting LRU entries to
// fit. Entries larger than the whole capacity are not cached.
func (c *lruCache) Add(key string, size int64) {
	if size > c.capacity {
		// Too big to ever fit; also drop a stale smaller entry if present.
		if e, ok := c.entries[key]; ok {
			c.remove(e)
		}
		return
	}
	if e, ok := c.entries[key]; ok {
		c.used += size - e.size
		e.size = size
		c.moveToFront(e)
	} else {
		e := &lruEntry{key: key, size: size}
		c.entries[key] = e
		c.pushFront(e)
		c.used += size
	}
	for c.used > c.capacity && c.tail != nil {
		c.remove(c.tail)
	}
}

// addAll is Add(key, size) for each key in order, for keys all absent from
// the cache (the caller guarantees it). It creates only the entries that
// survive: the kept set is the longest head prefix of [keys newest-first,
// then the current list] that fits the capacity, and the new entries share
// one slab.
func (c *lruCache) addAll(keys []string, size int64) {
	if size > c.capacity || len(keys) == 0 {
		return
	}
	fit := len(keys)
	if size > 0 {
		fit = int(min(int64(fit), c.capacity/size))
	}
	if fit < len(keys) {
		// The newest fit keys alone fill the cache: every older entry,
		// resident or new, is evicted on the way.
		for c.tail != nil {
			c.remove(c.tail)
		}
		keys = keys[len(keys)-fit:]
	}
	for c.tail != nil && c.used+int64(len(keys))*size > c.capacity {
		c.remove(c.tail)
	}
	if len(c.entries) == 0 {
		c.entries = make(map[string]*lruEntry, len(keys))
	}
	slab := make([]lruEntry, len(keys))
	for i, k := range keys {
		e := &slab[i]
		e.key, e.size = k, size
		c.entries[k] = e
		c.pushFront(e)
	}
	c.used += int64(len(keys)) * size
}

// Remove deletes key if present.
func (c *lruCache) Remove(key string) {
	if e, ok := c.entries[key]; ok {
		c.remove(e)
	}
}

// Used returns the bytes currently cached.
func (c *lruCache) Used() int64 { return c.used }

// Len returns the number of cached entries.
func (c *lruCache) Len() int { return len(c.entries) }

func (c *lruCache) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache) moveToFront(e *lruEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *lruCache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.head == e {
		c.head = e.next
	}
	if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *lruCache) remove(e *lruEntry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.used -= e.size
}
