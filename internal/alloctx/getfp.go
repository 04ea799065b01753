//go:build amd64 || arm64

package alloctx

import "unsafe"

// getfp returns the frame pointer of its caller. On amd64 and arm64 every
// Go frame saves its caller's frame pointer at that address and its own
// return address one word above it, so the frames form a chain that
// walkFrames can follow without decoding any pc-value table.
func getfp() unsafe.Pointer
