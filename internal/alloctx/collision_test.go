package alloctx

import "testing"

// A 64-bit hash collision between two distinct contexts must not merge
// their profiles: interning linearly probes to the next free key and counts
// the disambiguation. Real collisions are ~2^-64 events, so the test
// manufactures one by pre-occupying a label's key with a different context.
func TestCollisionDisambiguation(t *testing.T) {
	tab := newTable(t)
	key := hashString("static:a")
	tab.byKey.Store(key, &Context{key: key, label: "b"})
	tab.count.Add(1)

	got := tab.Static("a")
	if got.label != "a" {
		t.Fatalf("interned wrong context: %q", got.label)
	}
	if got.key == key {
		t.Fatalf("colliding context was merged onto the occupant's key")
	}
	if got.key != key+1 {
		t.Fatalf("probe landed at %#x, want %#x", got.key, key+1)
	}
	if tab.Collisions() != 1 {
		t.Fatalf("collisions = %d, want 1", tab.Collisions())
	}
	if tab.Lookup(got.key) != got {
		t.Fatalf("probed key not resolvable")
	}
	// Re-interning the probed context finds it without further stores, and
	// the occupant keeps its key.
	if tab.Static("a") != got {
		t.Fatalf("repeat intern of the probed context missed")
	}
	if occ := tab.Lookup(key); occ == nil || occ.label != "b" {
		t.Fatalf("occupant displaced from its key: %v", occ)
	}
	if tab.Collisions() != 1 {
		t.Fatalf("repeat interning counted spurious collisions: %d", tab.Collisions())
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
}

// Len is maintained by an atomic counter instead of ranging the sync.Map;
// it must agree with the number of distinct interned contexts.
func TestLenIsCounted(t *testing.T) {
	tab := newTable(t)
	if tab.Len() != 0 {
		t.Fatalf("empty table Len = %d", tab.Len())
	}
	labels := []string{"a", "b", "c", "a", "b", "d"}
	for _, l := range labels {
		tab.Static(l)
	}
	if tab.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tab.Len())
	}
	for i := 0; i < 2; i++ {
		tab.CaptureDynamic(0, 2) // same call site twice: one new context
	}
	if tab.Len() != 5 {
		t.Fatalf("Len after dynamic capture = %d, want 5", tab.Len())
	}
	if tab.Collisions() != 0 {
		t.Fatalf("spurious collisions: %d", tab.Collisions())
	}
}
