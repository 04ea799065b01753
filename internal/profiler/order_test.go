package profiler

import (
	"fmt"
	"math/rand"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/spec"
)

// usage is one instance's lifetime: the op counts, sizes and capacity it
// dies with.
type usage struct {
	ops               [spec.NumOps]int
	max, final, capac int
	buffered          bool
}

func randomUsages(rng *rand.Rand, n int) []usage {
	us := make([]usage, n)
	for i := range us {
		u := &us[i]
		for op := range u.ops {
			if rng.Intn(5) == 0 {
				u.ops[op] = 1 + rng.Intn(40)
			}
		}
		u.max = rng.Intn(100)
		u.final = rng.Intn(u.max + 1)
		u.capac = rng.Intn(3) * 8
		u.buffered = rng.Intn(2) == 0
	}
	return us
}

// live allocates an instance at ctx and drives u into it, through the
// owner-local buffer or the shared path.
func (u usage) live(p *Profiler, ctx *alloctx.Context) *Instance {
	in := p.OnAlloc(ctx, spec.KindList, spec.KindArrayList, u.capac)
	for op, n := range u.ops {
		for j := 0; j < n; j++ {
			if u.buffered {
				in.Buffer(spec.Op(op))
			} else {
				in.Record(spec.Op(op))
			}
		}
	}
	if u.buffered {
		in.BufferSize(int32(u.max))
		in.FlushPending(int64(u.final))
	} else {
		in.NoteSize(u.max)
		in.NoteSize(u.final)
	}
	return in
}

// foldDirect folds every usage into one context, dying in the given order.
func foldDirect(us []usage, order []int) *Profile {
	p, tab := New(), alloctx.NewTable()
	ctx := tab.Static("order:direct")
	ins := make([]*Instance, len(us))
	for i, u := range us {
		ins[i] = u.live(p, ctx)
	}
	for _, i := range order {
		p.OnDeath(ins[i])
	}
	return p.SnapshotContext(ctx.Key())
}

// foldEvicted gives every usage a context of its own, in the given order,
// under a one-per-shard budget, then pins a live instance in fresh
// contexts until every usage context has been evicted into the overflow
// aggregate, whose profile it returns.
func foldEvicted(t *testing.T, us []usage, order []int) *Profile {
	p, tab := New(), alloctx.NewTable()
	p.SetBudget(1, tab.Overflow())
	keys := make([]uint64, len(order))
	for j, i := range order {
		ctx := tab.Static(fmt.Sprintf("order.evict:%d", j))
		keys[j] = ctx.Key()
		p.OnDeath(us[i].live(p, ctx))
	}
	resident := func() bool {
		for _, k := range keys {
			if p.SnapshotContext(k) != nil {
				return true
			}
		}
		return false
	}
	for j := 0; resident(); j++ {
		if j == 1000 {
			t.Fatal("usage contexts still resident after 1000 pinned contexts")
		}
		p.OnAlloc(tab.Static(fmt.Sprintf("order.pin:%d", j)), spec.KindList, spec.KindArrayList, 0)
	}
	return p.SnapshotContext(p.OverflowKey())
}

// The per-instance statistics are exact integer moments, so they depend
// only on the set of folded records: two death orders, folded directly or
// absorbed context by context into the overflow aggregate, give
// bit-identical means and standard deviations.
func TestFoldOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	us := randomUsages(rng, 300)
	a, b := rng.Perm(len(us)), rng.Perm(len(us))
	want := foldDirect(us, a)
	if want.Evidence != int64(len(us)) {
		t.Fatalf("evidence = %d, want %d", want.Evidence, len(us))
	}
	for name, got := range map[string]*Profile{
		"direct, second order":  foldDirect(us, b),
		"evicted, first order":  foldEvicted(t, us, a),
		"evicted, second order": foldEvicted(t, us, b),
	} {
		if got.Evidence != want.Evidence {
			t.Fatalf("%s: evidence = %d, want %d", name, got.Evidence, want.Evidence)
		}
		for op := spec.Op(0); op < spec.NumOps; op++ {
			if got.OpTotals[op] != want.OpTotals[op] || got.OpMean[op] != want.OpMean[op] || got.OpStdDev[op] != want.OpStdDev[op] {
				t.Errorf("%s: %s total/mean/sd = %d/%v/%v, want %d/%v/%v", name, op,
					got.OpTotals[op], got.OpMean[op], got.OpStdDev[op], want.OpTotals[op], want.OpMean[op], want.OpStdDev[op])
			}
		}
		g := [...]float64{got.MaxSizeAvg, got.MaxSizeStdDev, got.MaxSizeMax, got.FinalSizeAvg, got.InitialCapAvg}
		w := [...]float64{want.MaxSizeAvg, want.MaxSizeStdDev, want.MaxSizeMax, want.FinalSizeAvg, want.InitialCapAvg}
		if g != w {
			t.Errorf("%s: size statistics (avg, sd, max, final, initCap) = %v, want %v", name, g, w)
		}
	}
}
