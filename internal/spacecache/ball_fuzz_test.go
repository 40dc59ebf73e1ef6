package spacecache

import (
	"bytes"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/protocol"
)

// FuzzReadBall holds the WSBL ball reader to the same contract as the
// space readers: an arbitrary mutation of a serialized ball either fails
// with an error or decodes to globals strictly ascending within
// [0, Total) with aligned distances in [0, k] — and then re-serializes to
// exactly the bytes it was read from (the CRC-64 passed, so the payload
// was untouched). A panic is a failure.
func FuzzReadBall(f *testing.F) {
	a, err := tokenring.New(4) // 3^4 = 81 configurations
	if err != nil {
		f.Fatal(err)
	}
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		f.Fatal(err)
	}
	total := enc.Total()
	seed := func(k int, globals []int64, dist []int) {
		var buf bytes.Buffer
		if err := writeBall(&buf, k, globals, dist); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(k))
	}
	seed(2, []int64{0, 5, 17, 40, total - 1}, []int{0, 1, 2, 1, 0})
	seed(1, []int64{3, 4}, []int{1, 0})
	seed(0, nil, nil)

	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		wantK := int(k % 4)
		globals, dist, err := readBall(bytes.NewReader(data), a, wantK, total)
		if err != nil {
			return
		}
		if len(dist) != len(globals) {
			t.Fatalf("accepted %d globals with %d distances", len(globals), len(dist))
		}
		for i, g := range globals {
			if g < 0 || g >= total || (i > 0 && g <= globals[i-1]) {
				t.Fatalf("accepted global %d at %d: not strictly ascending within [0,%d)", g, i, total)
			}
			if d := dist[i]; d < 0 || d > wantK {
				t.Fatalf("accepted distance %d at %d outside [0,%d]", d, i, wantK)
			}
		}
		var buf bytes.Buffer
		if err := writeBall(&buf, wantK, globals, dist); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatal("accepted ball does not re-serialize to the bytes it was read from")
		}
	})
}
