package alloctx_test

import (
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/core"
	"chameleon/internal/workloads"
)

// TestChainMemoBoundedInWorkloads runs pmd and tvla under dynamic capture
// and checks the chain memo against its bound: it is used, every hit
// agrees with runtime.Callers, and it never holds more entries than the
// table holds contexts.
func TestChainMemoBoundedInWorkloads(t *testing.T) {
	for _, name := range []string{"pmd", "tvla"} {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := core.NewSession(core.Config{Mode: alloctx.Dynamic, Online: true, GCThreshold: 128 << 10})
			tab := s.Runtime().Contexts()
			hits := alloctx.VerifyChains(t, tab)
			spec.Run(s.Runtime(), workloads.Baseline, 10)
			s.FinalGC()
			if hits.Load() == 0 || alloctx.ChainCount(tab) == 0 {
				t.Fatalf("%s: %d memo hits from %d chains over %d contexts",
					name, hits.Load(), alloctx.ChainCount(tab), tab.Len())
			}
			alloctx.CheckChainBound(t, tab)
		})
	}
}
