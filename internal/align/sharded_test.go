package align

import (
	"math/rand"
	"testing"
)

// TestCollectorReset pins the re-arm contract: after Reset the
// collector reports nothing, accepts the same hits again, and did not
// shrink (steady-state Adds on a warm table must not grow it).
func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	rng := rand.New(rand.NewSource(40))
	add := func() {
		for i := 0; i < 500; i++ {
			c.Add(rng.Intn(1000), rng.Intn(100), 1+rng.Intn(50))
		}
	}
	add()
	if c.Len() == 0 {
		t.Fatal("nothing recorded")
	}
	capBefore := len(c.tiles)
	c.Reset()
	if c.Len() != 0 || len(c.Hits()) != 0 {
		t.Fatalf("reset collector still reports %d hits", c.Len())
	}
	if len(c.tiles) != capBefore {
		t.Fatalf("Reset changed the table size: %d -> %d", capBefore, len(c.tiles))
	}
	rng = rand.New(rand.NewSource(40))
	add()
	if len(c.tiles) != capBefore {
		t.Fatalf("re-adding the same hits grew the warm table: %d -> %d", capBefore, len(c.tiles))
	}
}

// TestShardedCollectorMatchesSingle scatters one hit stream (with
// duplicate end pairs at different scores) across shards and checks
// the merged result equals a single collector fed the same stream.
func TestShardedCollectorMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sc := NewSharded(4)
	want := NewCollector()
	for i := 0; i < 3000; i++ {
		tEnd, qEnd, score := rng.Intn(400), rng.Intn(80), 1+rng.Intn(60)
		want.Add(tEnd, qEnd, score)
		sc.Shard(rng.Intn(4)).Add(tEnd, qEnd, score)
	}
	got := NewCollector()
	sc.MergeInto(got, 4)
	if !EqualHits(got.Hits(), want.Hits()) {
		t.Fatalf("sharded merge diverges: %d hits vs %d", got.Len(), want.Len())
	}

	// Re-arm and reuse: the shards must come back empty but warm.
	sc.ResetAll()
	for i := 0; i < 4; i++ {
		if sc.Shard(i).Len() != 0 {
			t.Fatalf("shard %d not empty after ResetAll", i)
		}
	}
	sc.Shard(0).Add(7, 3, 9)
	second := NewCollector()
	sc.MergeInto(second, 4)
	if second.Len() != 1 {
		t.Fatalf("reused shards leaked old hits: %d", second.Len())
	}

	// Resize keeps existing shards.
	sc.Resize(6)
	if sc.Shard(0).Len() != 1 {
		t.Fatal("Resize dropped shard contents")
	}
	if sc.Shard(5).Len() != 0 {
		t.Fatal("new shard not empty")
	}
}
