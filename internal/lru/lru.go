// Package lru is the one least-recently-used map behind every bounded
// cache in the system: the phase-1 record cache, the build daemon's
// request table and the profile-aggregation store's per-program states.
//
// A Cache is not safe for concurrent use; each owner guards it with the
// mutex that already protects the rest of its state.
package lru

import "container/list"

// Cache maps keys to values, holding at most a fixed number of entries
// and evicting the least recently used one on overflow.
type Cache[K comparable, V any] struct {
	max   int
	order *list.List // of *entry[K, V]; front = most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most max entries; max must be
// positive.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under k as the most recently used entry, replacing any
// value already there, and returns how many entries it evicted.
func (c *Cache[K, V]) Put(k K, v V) (evicted int) {
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return 0
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	for c.order.Len() > c.max {
		delete(c.items, c.order.Remove(c.order.Back()).(*entry[K, V]).key)
		evicted++
	}
	return evicted
}

// Remove drops the entry stored under k, if any.
func (c *Cache[K, V]) Remove(k K) {
	if el, ok := c.items[k]; ok {
		c.order.Remove(el)
		delete(c.items, k)
	}
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int { return len(c.items) }
