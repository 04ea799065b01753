package alloctx

import (
	"sync/atomic"
	"testing"
)

// ChainCount reports how many chains the table's chain memo holds.
func ChainCount(tab *Table) int {
	n := 0
	tab.chains.Range(func(_, _ any) bool { n++; return true })
	return n
}

// CheckChainBound fails t if the chain memo holds more entries than the
// table holds contexts.
func CheckChainBound(t testing.TB, tab *Table) {
	t.Helper()
	if n, l := ChainCount(tab), tab.Len(); n > l {
		t.Errorf("chain memo holds %d entries for %d contexts", n, l)
	}
}

// newTable returns a table whose chain-memo bound is checked when the
// test ends.
func newTable(t testing.TB) *Table {
	tab := NewTable()
	t.Cleanup(func() { CheckChainBound(t, tab) })
	return tab
}

// VerifyChains makes every chain-memo hit on tab also run the
// runtime.Callers path, fails t if the two disagree, and returns the count
// of memo hits so far.
func VerifyChains(t testing.TB, tab *Table) *atomic.Int64 {
	var hits atomic.Int64
	tab.verify = func(memo, callers *Context) {
		hits.Add(1)
		if memo != callers {
			t.Errorf("chain memo hit %q, runtime.Callers %q", memo, callers)
		}
	}
	return &hits
}
