package lru

import "testing"

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	if n := c.Put("a", 1) + c.Put("b", 2); n != 0 {
		t.Fatalf("evictions below capacity = %d", n)
	}
	c.Get("a") // b is now least recently used
	if n := c.Put("c", 3); n != 1 {
		t.Errorf("Put over capacity evicted %d, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry b survived")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%q) = %d, %v; want %d, true", k, v, ok, want)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestPutReplacesAndRefreshes(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "one")
	c.Put(2, "two")
	if n := c.Put(1, "uno"); n != 0 {
		t.Errorf("replacing Put evicted %d", n)
	}
	c.Put(3, "three") // 2 is least recently used after 1's refresh
	if _, ok := c.Get(2); ok {
		t.Error("entry 2 survived; a replacing Put must refresh recency")
	}
	if v, _ := c.Get(1); v != "uno" {
		t.Errorf("Get(1) = %q, want the replaced value", v)
	}
}

func TestRemove(t *testing.T) {
	c := New[int, int](4)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Remove(1)
	c.Remove(7) // absent: no effect
	if _, ok := c.Get(1); ok || c.Len() != 1 {
		t.Errorf("after Remove: hit = %v, Len = %d; want miss, 1", ok, c.Len())
	}
	// The freed slot is reusable without evicting the survivor.
	for k := 3; k <= 5; k++ {
		if n := c.Put(k, k); n != 0 {
			t.Errorf("Put(%d) evicted %d with room left", k, n)
		}
	}
	if _, ok := c.Get(2); !ok {
		t.Error("entry 2 was evicted")
	}
}
