package main

import "fmt"

// referenceChecksums are the plain-runtime checksums of one unit of each
// workload at the benchmark's scale (a whole run, or one 32-request
// frontend batch). The drivers seed their own PRNGs with constants in
// internal/workloads (pmd 555, tvla 42; frontend and contextstorm derive
// each request's or iteration's seed from its index), so these values are
// fixed for a given driver version; a driver change that alters them must
// update them here.
var referenceChecksums = map[string]uint64{
	"pmd@25":          0xaa1856fd06ec0ab7,
	"tvla@120":        0xc17bb3ca4f2db1,
	"frontend@4":      0xad75fbd16d178c88,
	"contextstorm@30": 0x285e014df025131d,
}

func referenceChecksum(w *workload) (uint64, bool) {
	v, ok := referenceChecksums[fmt.Sprintf("%s@%d", w.spec, w.scale)]
	return v, ok
}
