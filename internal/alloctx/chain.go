package alloctx

import (
	"runtime"
	"unsafe"
)

// The chain memo resolves a warm dynamic capture without runtime.Callers.
// runtime.Callers decodes the pc-value tables of every frame it walks, on
// every call; a warm capture instead reads the return addresses off the
// frame-pointer chain (getfp, walkFrames) — a few loads per frame — and
// looks the context up by them. Only the runtime.Callers path decides what
// a context is: the memo stores a walked chain only once lineUp has proved
// that those walked frames hold every logical frame of the context's key,
// so a hit returns exactly what runtime.Callers would have.

// maxChain bounds the walked frames of a memoised chain. A stack whose
// proof needs more stays on the runtime.Callers path.
const maxChain = 32

// chain is one memoised frame-pointer chain: the return addresses a warm
// capture walks from CaptureDynamic's caller outwards, and the context the
// runtime.Callers path resolved them to.
type chain struct {
	rets        []uintptr
	skip, depth int
	// ends marks a stack shorter than skip+depth logical frames: only a
	// walk that ends right after rets is the same stack.
	ends bool
	ctx  *Context
}

// walkFrames copies the return addresses of the frame-pointer chain that
// starts at fp into rets, innermost first, and reports how many it copied.
// It makes no calls, so the stack cannot move while it reads it. A caller's
// frame always lies above its callee's, so the walk stops at the first
// saved frame pointer that does not point upwards: nil at the bottom of a
// goroutine, or a frame pointer from code that keeps none. Like the Go
// execution tracer's walk, it trusts the chain of Go frames. It is not
// known safe in a capture made from a cgo callback, whose C frames may keep
// no frame pointer (the tracer falls back to the runtime's table-driven
// unwinder there); this module has no cgo code.
func walkFrames(fp unsafe.Pointer, rets []uintptr) int {
	n := 0
	for n < len(rets) && fp != nil {
		rets[n] = *(*uintptr)(unsafe.Add(fp, unsafe.Sizeof(uintptr(0))))
		n++
		next := *(*unsafe.Pointer)(fp)
		if uintptr(next) <= uintptr(fp) {
			break
		}
		fp = next
	}
	return n
}

// chainSeed starts a chain hash. The capture arguments are part of the
// key: the same stack captured at another skip or depth is another context.
func chainSeed(skip, depth int) uint64 {
	return (fnvOffset ^ uint64(skip)<<32 ^ uint64(depth)) * fnvPrime
}

// chainMix folds one return address into a chain hash, a word at a time.
func chainMix(h uint64, ret uintptr) uint64 {
	return (h ^ uint64(ret)) * fnvPrime
}

// chainHit resolves a warm stack from its walked return addresses. For
// every chain length in use (bit n of lens set), it looks up the chain
// stored under the hash of the first n addresses and compares the stored
// addresses, which rules out a hash collision. It returns nil on a miss.
func (t *Table) chainHit(rets []uintptr, lens uint64, skip, depth int) *Context {
	h := chainSeed(skip, depth)
	for i, ret := range rets {
		h = chainMix(h, ret)
		if lens&(1<<(i+1)) == 0 {
			continue
		}
		if v, ok := t.chains.Load(h); ok {
			if c := v.(*chain); c.matches(rets, skip, depth) {
				return c.ctx
			}
		}
	}
	return nil
}

// matches reports whether a walk that read rets is the chain's stack.
func (c *chain) matches(rets []uintptr, skip, depth int) bool {
	if c.skip != skip || c.depth != depth || len(rets) < len(c.rets) ||
		c.ends && len(rets) != len(c.rets) {
		return false
	}
	for i, ret := range c.rets {
		if rets[i] != ret {
			return false
		}
	}
	return true
}

// memoize stores the walked chain of a context the runtime.Callers path
// just resolved, once lineUp proves the chain determines it. A context
// denied by the budget (the overflow context) is never memoised, so the
// stack is admitted on its own once the budget is raised. Each context is
// memoised under one chain at most, which bounds the memo by Len(); a
// second stack that resolves to the same context — possible only through
// different elided wrapper or skipped frames — stays on the runtime.Callers
// path.
func (t *Table) memoize(ctx *Context, walked, logical []uintptr, skip, depth int) {
	if ctx.label != "" || ctx.chained.Load() {
		return
	}
	n, ends := lineUp(walked, logical, len(logical) == skip+depth)
	if n == 0 || n > maxChain || !ctx.chained.CompareAndSwap(false, true) {
		return
	}
	c := &chain{rets: append([]uintptr(nil), walked[:n]...), skip: skip, depth: depth, ends: ends, ctx: ctx}
	h := chainSeed(skip, depth)
	for _, ret := range c.rets {
		h = chainMix(h, ret)
	}
	if _, loaded := t.chains.LoadOrStore(h, c); loaded {
		// Another chain holds the hash (first writer wins): this context
		// stays unmemoised and may claim a slot under another chain.
		ctx.chained.Store(false)
		return
	}
	t.chainLens.Or(1 << n)
}

// lineUp proves that walked determines logical. walked holds the return
// addresses on the frame-pointer chain from CaptureDynamic's caller
// outwards; logical holds what runtime.Callers returned for the same stack
// from the same frame, skipped frames included. They are matched in
// lockstep, one physical frame at a time:
//   - a physical frame's first logical frame is its return address;
//   - physical frames passed over to reach that match are wrappers, which
//     runtime.Callers elides (a method value's -fm frame, for one);
//   - a logical frame that is no return address was inlined into the
//     physical frame before it, and must lie in the same function.
//
// lineUp reports how many walked frames hold every frame of logical, or 0
// if the walk proves nothing. full says logical filled its skip+depth
// frames; if it did not, the stack ended early, and the walk must end at
// the same frame (ends).
func lineUp(walked, logical []uintptr, full bool) (n int, ends bool) {
	for _, pc := range logical {
		k := n
		for k < len(walked) && walked[k] != pc {
			k++
		}
		if k < len(walked) {
			n = k + 1
			continue
		}
		if n == 0 || !sameFunc(pc, walked[n-1]) {
			return 0, false
		}
	}
	if full {
		return n, false
	}
	if n != len(walked) || n > maxChain {
		return 0, false
	}
	return n, true
}

// sameFunc reports whether two return addresses lie in one physical
// function. FuncForPC resolves an inlined pc to the innermost function but
// with the entry of the outermost one, which is the function that owns the
// frame.
func sameFunc(a, b uintptr) bool {
	fa, fb := runtime.FuncForPC(a-1), runtime.FuncForPC(b-1)
	return fa != nil && fb != nil && fa.Entry() == fb.Entry()
}
