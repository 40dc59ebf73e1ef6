//go:build linux

package spacecache

import "syscall"

// mapFlags on Linux adds MAP_POPULATE: a full load's CRC pass reads every
// page anyway, and one prefaulting syscall is several times cheaper than
// thousands of on-demand minor faults over the mapping. A trusted load
// runs no CRC pass, yet the flag still prefaults every page of the file.
const mapFlags = syscall.MAP_SHARED | syscall.MAP_POPULATE
