//go:build !amd64 && !arm64

package alloctx

import "unsafe"

// getfp returns nil where the frame-pointer chain is not walked, which
// turns the chain memo off: every dynamic capture runs runtime.Callers.
func getfp() unsafe.Pointer { return nil }
