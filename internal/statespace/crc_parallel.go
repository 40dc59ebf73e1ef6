// Parallel CRC-32C. The decoder checksums the whole buffer in one pass
// before any section is trusted, and on acceptance-scale files that
// single hardware-assisted sweep is the largest cost left on the warm
// path. CRC is linear over GF(2), so the buffer splits into per-worker
// chunks whose checksums stitch together exactly — crc32Combine extends a
// prefix CRC by the length of the following chunk via the standard
// zero-operator matrix squaring (the zlib crc32_combine construction,
// with the Castagnoli polynomial) — and the stitched value is bit-equal
// to the serial crc32.Checksum, which the tests pin.

package statespace

import (
	"hash/crc32"
	"runtime"
)

// castagnoliReflected is the reflected form of the Castagnoli polynomial,
// the representation the combine matrices work in (crcTable's polynomial).
const castagnoliReflected = 0x82F63B78

// gf2MatrixTimes multiplies the bit-vector vec by mat over GF(2).
func gf2MatrixTimes(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i, vec = i+1, vec>>1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
	}
	return sum
}

// gf2MatrixSquare sets square to mat·mat over GF(2).
func gf2MatrixSquare(square, mat *[32]uint32) {
	for n := range square {
		square[n] = gf2MatrixTimes(mat, mat[n])
	}
}

// crc32Combine returns the CRC-32C of the concatenation A||B given
// crc1 = CRC(A) and crc2 = CRC(B), where B is len2 bytes: crc1 is advanced
// through len2 zero bytes by repeated squaring of the zero-byte operator,
// then xored with crc2.
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	var even, odd [32]uint32
	odd[0] = castagnoliReflected // operator for one zero bit
	row := uint32(1)
	for n := 1; n < 32; n++ {
		odd[n] = row
		row <<= 1
	}
	gf2MatrixSquare(&even, &odd) // two zero bits
	gf2MatrixSquare(&odd, &even) // four zero bits
	for {
		gf2MatrixSquare(&even, &odd) // next power-of-two zero bytes
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&even, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
		gf2MatrixSquare(&odd, &even)
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&odd, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
	}
	return crc1 ^ crc2
}

// checksumParallel is crc32.Checksum(data, crcTable) computed on all CPUs:
// per-worker chunk checksums, taken on ForRanges, stitched with
// crc32Combine. Buffers too small to amortize the workers take the serial
// path; the result is identical either way.
func checksumParallel(data []byte) uint32 {
	const minChunk = 1 << 21
	workers := min(runtime.NumCPU(), len(data)/minChunk)
	if workers <= 1 {
		return crc32.Checksum(data, crcTable)
	}
	chunk := (len(data) + workers - 1) / workers
	crcs := make([]uint32, workers)
	ForRanges(len(data), workers, chunk, func(lo, hi int) error {
		crcs[lo/chunk] = crc32.Checksum(data[lo:hi], crcTable)
		return nil
	})
	crc := crcs[0]
	for w := 1; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(data))
		crc = crc32Combine(crc, crcs[w], int64(hi-lo))
	}
	return crc
}
