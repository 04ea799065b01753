package workloads

import (
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/core"
	"chameleon/internal/governor"
)

// TestContextStormChecksumInvariantUnderBudget is the ISSUE acceptance
// test: with a context budget far below the storm's cardinality, the
// workload checksum is identical to the unbounded run's (profiling stays
// passive under eviction), context tracking is bounded, and the evicted
// traffic is attributed to the overflow context.
func TestContextStormChecksumInvariantUnderBudget(t *testing.T) {
	const scale = 40
	run := func(maxContexts int) (uint64, core.Health) {
		s := core.NewSession(core.Config{Mode: alloctx.Static, MaxContexts: maxContexts})
		sum := RunContextStorm(s.Runtime(), Baseline, scale)
		s.FinalGC()
		return sum, s.Health()
	}
	unbounded, hu := run(0)
	bounded, hb := run(48)
	if unbounded != bounded {
		t.Fatalf("budget changed the checksum: %#x != %#x", bounded, unbounded)
	}

	cold := StormColdContexts(scale)
	if cold < 100 {
		t.Fatalf("storm minted only %d cold contexts at scale %d — not a storm", cold, scale)
	}
	if hu.Budget.TableContexts < cold {
		t.Fatalf("unbounded run interned %d contexts, want >= %d cold", hu.Budget.TableContexts, cold)
	}
	if hb.Budget.TableContexts > 48+1 {
		t.Fatalf("bounded run interned %d contexts, want <= budget+overflow = 49", hb.Budget.TableContexts)
	}
	if hb.Budget.ProfilerContexts > 48+1 {
		t.Fatalf("bounded run tracks %d profiler contexts, want <= 49", hb.Budget.ProfilerContexts)
	}
	if hb.Budget.TableOverflowAdmissions == 0 {
		t.Fatal("no denied admissions under a budget below the storm's cardinality")
	}
	if hb.Budget.OverflowAllocs == 0 {
		t.Fatal("no allocation traffic attributed to the overflow context")
	}
}

// TestContextStormScheduleIndependent: the concurrent storm returns the
// single-worker checksum for any worker count, budget or not.
func TestContextStormScheduleIndependent(t *testing.T) {
	const scale = 20
	want := func() uint64 {
		s := core.NewSession(core.Config{Mode: alloctx.Static})
		return RunContextStorm(s.Runtime(), Baseline, scale)
	}()
	for _, workers := range []int{2, 4} {
		for _, budget := range []int{0, 32} {
			s := core.NewSession(core.Config{Mode: alloctx.Static, MaxContexts: budget})
			got := RunContextStormWorkers(s.Runtime(), Baseline, scale, workers)
			if got != want {
				t.Fatalf("workers=%d budget=%d checksum %#x, want %#x", workers, budget, got, want)
			}
		}
	}
}

// TestContextStormVariantsAgree: tuned collection choices must not change
// the computed result (the §1 interchangeability requirement every
// workload obeys).
func TestContextStormVariantsAgree(t *testing.T) {
	const scale = 20
	run := func(v Variant) uint64 {
		s := core.NewSession(core.Config{Mode: alloctx.Static})
		return RunContextStorm(s.Runtime(), v, scale)
	}
	if b, tu := run(Baseline), run(Tuned); b != tu {
		t.Fatalf("tuned variant changed the checksum: %#x != %#x", tu, b)
	}
}

// TestContextStormChecksumStableAcrossTiers: the degradation ladder sheds
// profiling fidelity, never workload behaviour — every tier computes the
// same checksum.
func TestContextStormChecksumStableAcrossTiers(t *testing.T) {
	const scale = 20
	var sums []uint64
	for tier := governor.TierFull; tier <= governor.TierOff; tier++ {
		s := core.NewSession(core.Config{Mode: alloctx.Static})
		s.Runtime().SetProfilingTier(tier, 4)
		sums = append(sums, RunContextStorm(s.Runtime(), Baseline, scale))
	}
	for i, sum := range sums[1:] {
		if sum != sums[0] {
			t.Fatalf("tier %v checksum %#x differs from full tier's %#x",
				governor.Tier(i+1), sum, sums[0])
		}
	}
}
