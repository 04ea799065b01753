package main

import (
	"runtime"
	"runtime/debug"
)

// refNode is the reference unit's list cell.
type refNode struct {
	key  uint64
	next *refNode
	vals []uint64
}

// refSink keeps the reference unit's result live.
var refSink uint64

// refUnit is a fixed unit of work that calls none of the repository's
// code: churn of small objects through a hash map of short lists, like the
// workloads' own allocation and lookup mix. The untraced run divides its
// CPU times by this unit's, measured in the same rounds, so that the
// host's speed, which drifts by a fifth over minutes on a shared machine,
// cancels out. It must never change: a change to it rescales every
// *_ref_x metric.
func refUnit() {
	m := make(map[uint64]*refNode, 64)
	var sum uint64
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 24000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % 1024
		n := &refNode{key: k, next: m[k], vals: make([]uint64, 0, 2+x%6)}
		n.vals = append(n.vals, k, sum)
		if i%64 == 0 {
			clear(m)
		}
		m[k] = n
		for p := n; p != nil; p = p.next {
			sum += p.key + uint64(len(p.vals))
		}
	}
	refSink = sum
}

// timeRefUnit runs the reference unit and returns its CPU time in seconds.
// The Go GC is off while it runs and collects its garbage afterwards,
// outside the timed part: whether and when a collection fell inside the
// unit depended on the live heap of the workload sharing the process, and
// made the unit's median move by a tenth between runs of the frontend.
func timeRefUnit() float64 {
	old := debug.SetGCPercent(-1)
	c0 := cpuTime()
	refUnit()
	d := cpuTime() - c0
	debug.SetGCPercent(old)
	runtime.GC()
	return d.Seconds()
}
