//go:build !unix

package alae

// lockStoreDir has no file lock off unix: the stamp check alone guards
// the directory there, which catches a stale handle but not two
// writers that overlap (DESIGN.md, "Generational storage & recovery").
func lockStoreDir(string) (func(), error) { return func() {}, nil }
