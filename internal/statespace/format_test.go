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
	if statespace.SerialVersion != 3 {
		t.Fatalf("SerialVersion = %d, want 3", statespace.SerialVersion)
	}
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
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
		{"full", full, "1fb17b7b38ba3635387c8296bcae15fd9c5f7c40e186ef51bf7b14d2f5d4b5b7"},
		{"ball-k1", ball, "0e992f89a369b35c386f52ab9a7838703e2636e928a3f468ab0fe12ed194e491"},
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
