//go:build unix

package spacecache

import (
	"fmt"
	"os"
	"syscall"
)

// mmapSupported reports whether this platform has the zero-copy mmap load
// path; when false, every load reads the file into memory.
const mmapSupported = true

// maxMapBytes is the largest file the loader will map: a mapping is
// addressed through a []byte, so it must fit the platform's int.
const maxMapBytes = int64(^uint(0) >> 1)

// mmapOpen maps the whole file at path read-only and returns the mapped
// bytes with their unmap function and the stat the size came from (the
// identity the validation memo keys on). The descriptor is closed before
// returning — the mapping keeps the inode alive on its own, which is what
// makes gc-while-mapped safe: unlinking a mapped cache file frees the
// directory entry immediately and the pages only when the last mapping
// drops.
func mmapOpen(path string) ([]byte, func() error, os.FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, nil, err
	}
	size := fi.Size()
	if size <= 0 || size > maxMapBytes {
		return nil, nil, nil, fmt.Errorf("spacecache: %s: unmappable size %d", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, mapFlags)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("spacecache: mmap %s: %w", path, err)
	}
	return data, func() error { return syscall.Munmap(data) }, fi, nil
}

// stampOf condenses a stat into the identity the validation memo trusts:
// device, inode, size, mtime. Every rewrite path in this package goes
// through rename (fresh inode) and touch moves mtime on each use, so a
// matching stamp means the bytes are the ones already validated. ok is
// false when the platform stat carries no inode identity; such files are
// never trusted.
func stampOf(fi os.FileInfo) (fileStamp, bool) {
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok || st == nil {
		return fileStamp{}, false
	}
	return fileStamp{
		dev:     uint64(st.Dev),
		ino:     uint64(st.Ino),
		size:    fi.Size(),
		mtimeNS: fi.ModTime().UnixNano(),
	}, true
}
