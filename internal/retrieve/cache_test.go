package retrieve

import (
	"sync"
	"testing"
)

func TestCacheLRUAndVersionInvalidation(t *testing.T) {
	c := NewCache(2)
	c.Put(1, "v1", "a")
	c.Put(2, "v1", "b")
	if v, ok := c.Get(1, "v1"); !ok || v != "a" {
		t.Fatalf("Get(1) = %v %v", v, ok)
	}
	// 1 is now most-recent; inserting 3 evicts 2.
	c.Put(3, "v1", "c")
	if _, ok := c.Get(2, "v1"); ok {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if v, ok := c.Get(1, "v1"); !ok || v != "a" {
		t.Fatal("entry 1 should have survived")
	}
	// A version mismatch misses AND evicts: no stale responses, ever.
	if _, ok := c.Get(1, "v2"); ok {
		t.Fatal("stale-version Get must miss")
	}
	if c.Len() != 1 {
		t.Fatalf("stale entry not evicted: len %d", c.Len())
	}
	// Overwrite updates version and value in place.
	c.Put(3, "v2", "c2")
	if v, ok := c.Get(3, "v2"); !ok || v != "c2" {
		t.Fatalf("Get(3) after overwrite = %v %v", v, ok)
	}
	if _, ok := c.Get(3, "v1"); ok {
		t.Fatal("old version must not serve after overwrite")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := uint64(i % 100)
				switch i % 3 {
				case 0:
					c.Put(key, "v1", g)
				case 1:
					c.Get(key, "v1")
				case 2:
					c.Get(key, "v2") // forces stale-path eviction races
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}
