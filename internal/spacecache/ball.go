// Ball entries: the (instance, k)-keyed persistence of fault-ball
// enumerations. A k-fault analysis needs the ball twice — as the seed set
// whose hash names the closure subspace's cache file, and as the exact
// distance vector behind the per-k verdicts — and before this file
// existed, warm `-reachable -kfaults` runs still paid a fresh ball
// enumeration per run just to re-derive the seed set. The ball is a pure
// function of the algorithm instance and the radius (no policy, no
// scheduler: single-process mutations only), so it persists under the
// policy-free instance identity plus k, and a warm run is O(ball) end to
// end: load the ball, load the subspace it keys, analyze.
//
// The format mirrors the statespace serial layout in miniature: a fixed
// little-endian header (magic "WSBL", version, radius, count), the sorted
// global indexes, the aligned distances, and a trailing CRC-64 of
// everything before it. Loads validate shape (globals strictly ascending
// within the instance's index range, distances within [0, k]) and degrade
// to a rebuild on any failure, exactly like the space entries.

package spacecache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"weakstab/internal/obs"
	"weakstab/internal/protocol"
)

// ballVersion is the on-disk format version of ball entries. It is part of
// the cache key, so a layout change simply strands the old files.
const ballVersion = 1

// ballMagic opens every serialized ball ("WSBL": weakstab ball).
var ballMagic = [4]byte{'W', 'S', 'B', 'L'}

// BallKey returns the canonical cache key of the distance-≤k fault ball of
// the instance: a hex digest of the policy-free instance identity plus the
// radius. Two runs constructing the same instance independently produce
// the same key, under any scheduler policy.
func BallKey(a protocol.Algorithm, k int) string {
	sum := sha256.Sum256(fmt.Appendf([]byte(canonicalInstance(a)), "|ball=v%d,k=%d", ballVersion, k))
	return hex.EncodeToString(sum[:12])
}

func (c *Cache) ballPath(key string) string { return filepath.Join(c.dir, key+".ball") }

// LoadBall returns the cached distance-≤k fault ball of the instance —
// global configuration indexes in ascending order with aligned exact
// fault distances — or (nil, nil, false) on any miss: no file, truncation,
// corruption, version mismatch, implausible shape, or a ball beyond
// maxStates (pre-resolved by the caller; pass statespace.StateCap(m)).
// A miss is never an error: the caller re-enumerates and the rebuild's
// StoreBall overwrites the bad bytes.
func (c *Cache) LoadBall(a protocol.Algorithm, k int, maxStates int64) ([]int64, []int, bool) {
	if c == nil {
		return nil, nil, false
	}
	o := obs.Default()
	key := BallKey(a, k)
	path := c.ballPath(key)
	f, err := os.Open(path)
	if err != nil {
		observeLoad(o, "ball", key, "", false, 0)
		return nil, nil, false
	}
	defer f.Close()
	globals, dist, err := readBall(f, a, k, maxStates)
	if err != nil {
		observeLoad(o, "ball", key, "", false, 0)
		return nil, nil, false
	}
	touch(path)
	observeLoad(o, "ball", key, "decode", true, sizeOf(f))
	return globals, dist, true
}

// StoreBall persists the ball enumeration (globals in ascending order with
// aligned distances, as FaultBallContext returns them) under the instance's
// (policy-free) key, atomically. A nil cache stores nothing. The error is
// advisory: like every store in this package it never has to gate the
// analysis that produced the data.
func (c *Cache) StoreBall(a protocol.Algorithm, k int, globals []int64, dist []int) error {
	if c == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := writeBall(&buf, k, globals, dist); err != nil {
		return fmt.Errorf("spacecache: %w", err)
	}
	key := BallKey(a, k)
	err := c.atomicWrite(c.ballPath(key), bytesWriterTo{&buf})
	if err == nil {
		observeStore(obs.Default(), "ball", key)
	}
	return err
}

// bytesWriterTo adapts an assembled buffer to the io.WriterTo that
// atomicWrite streams.
type bytesWriterTo struct{ b *bytes.Buffer }

func (w bytesWriterTo) WriteTo(dst io.Writer) (int64, error) { return w.b.WriteTo(dst) }

func writeBall(w io.Writer, k int, globals []int64, dist []int) error {
	cw := &crcWriter{w: w}
	var hdr [24]byte
	copy(hdr[0:4], ballMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], ballVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], 0) // reserved
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(k))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(globals)))
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	var b [8]byte
	for _, g := range globals {
		binary.LittleEndian.PutUint64(b[:], uint64(g))
		if _, err := cw.Write(b[:]); err != nil {
			return err
		}
	}
	for _, d := range dist {
		binary.LittleEndian.PutUint32(b[:4], uint32(d))
		if _, err := cw.Write(b[:4]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(b[:], cw.crc)
	_, err := w.Write(b[:]) // trailer, outside the checksum
	return err
}

// crcWriter counts and checksums everything written through it (the ball
// twin of the statespace serial writer).
type crcWriter struct {
	w   io.Writer
	crc uint64
}

var ballCRCTable = crc64.MakeTable(crc64.ECMA)

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc64.Update(cw.crc, ballCRCTable, p[:n])
	return n, err
}

// ballPrealloc caps the entry count allocated before any payload byte has
// been read, so a corrupt header claiming a gigantic ball cannot force a
// huge allocation before the stream runs dry.
const ballPrealloc = 1 << 20

func readBall(r io.Reader, a protocol.Algorithm, wantK int, maxStates int64) ([]int64, []int, error) {
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(r, 1<<16)
	crc := uint64(0)
	full := func(p []byte) error {
		n, err := io.ReadFull(br, p)
		crc = crc64.Update(crc, ballCRCTable, p[:n])
		return err
	}
	var hdr [24]byte
	if err := full(hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("spacecache: reading ball header: %w", err)
	}
	if [4]byte(hdr[0:4]) != ballMagic {
		return nil, nil, fmt.Errorf("spacecache: bad ball magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != ballVersion {
		return nil, nil, fmt.Errorf("spacecache: ball format version %d, want %d", v, ballVersion)
	}
	k := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	count := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	if k != int64(wantK) {
		return nil, nil, fmt.Errorf("spacecache: ball radius %d, want %d", k, wantK)
	}
	if count < 0 || count > maxStates || count > enc.Total() {
		return nil, nil, fmt.Errorf("spacecache: implausible ball of %d configurations", count)
	}
	globals := make([]int64, 0, min(count, ballPrealloc))
	var b [8]byte
	prev := int64(-1)
	for int64(len(globals)) < count {
		if err := full(b[:]); err != nil {
			return nil, nil, fmt.Errorf("spacecache: reading ball globals: %w", err)
		}
		g := int64(binary.LittleEndian.Uint64(b[:]))
		if g <= prev || g >= enc.Total() {
			return nil, nil, fmt.Errorf("spacecache: ball globals not strictly ascending within [0,%d)", enc.Total())
		}
		prev = g
		globals = append(globals, g)
	}
	dist := make([]int, 0, min(count, ballPrealloc))
	for int64(len(dist)) < count {
		if err := full(b[:4]); err != nil {
			return nil, nil, fmt.Errorf("spacecache: reading ball distances: %w", err)
		}
		d := int64(int32(binary.LittleEndian.Uint32(b[:4])))
		if d < 0 || d > k {
			return nil, nil, fmt.Errorf("spacecache: ball distance %d outside [0,%d]", d, k)
		}
		dist = append(dist, int(d))
	}
	want := crc
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return nil, nil, fmt.Errorf("spacecache: reading ball checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(b[:]); got != want {
		return nil, nil, fmt.Errorf("spacecache: ball checksum mismatch (file %#x, computed %#x)", got, want)
	}
	return globals, dist, nil
}
