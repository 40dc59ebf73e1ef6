//go:build !unix

package spacecache

import (
	"errors"
	"os"
)

// mmapSupported: no zero-copy path on this platform; loads read the file
// into memory.
const mmapSupported = false

func mmapOpen(path string) ([]byte, func() error, os.FileInfo, error) {
	return nil, nil, nil, errors.New("spacecache: mmap unsupported on this platform")
}

// stampOf: without a portable inode identity there is nothing to key the
// validation memo on, so files are never trusted (and never mapped).
func stampOf(fi os.FileInfo) (fileStamp, bool) {
	return fileStamp{}, false
}
