//go:build unix

package alae

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockStoreDir takes the writers' exclusive lock on a store directory:
// an flock on <dir>/LOCK, held from a mutation's stamp check to its
// sweep, so overlapping writers — other handles in this process or
// other processes — commit one at a time and the later one fails the
// stamp check with nothing written. The returned func releases it.
// Readers never take it: the manifest rename is what they rely on.
func lockStoreDir(dir string) (func(), error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("alae: opening store lock: %w", err)
	}
	for {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("alae: locking store directory %s: %w", dir, err)
	}
	return func() { f.Close() }, nil // closing the file drops the flock
}
