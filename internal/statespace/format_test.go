package statespace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/checker"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// TestSerialFormatPinned pins the exact bytes WriteTo produces for a full
// space and for a fault-ball closure. Cache directories written by earlier
// builds must keep loading warm, so any change to these digests is a
// format change and needs a SerialVersion bump.
func TestSerialFormatPinned(t *testing.T) {
	if statespace.SerialVersion != 2 {
		t.Fatalf("SerialVersion = %d, want 2", statespace.SerialVersion)
	}
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy{}
	full, err := statespace.Build(ring, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ball, _, _, err := checker.BallClosureContext(t.Context(), nil, ring, pol, 1, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sp   *statespace.Space
		want string
	}{
		{"full", full, "d1f1b58aef5b5dac484c071e428b466ed21fa6f303ce20217aa7c9bc60c86c29"},
		{"ball-k1", ball, "98688b62be8935e9dab05cb583a6803a0bf72691d03bbc8617c8d5003f6c3bb0"},
	} {
		h := sha256.New()
		if _, err := tc.sp.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: sha256 of WriteTo = %s, want %s", tc.name, got, tc.want)
		}
	}
}
