package service

import (
	"strings"
	"testing"
)

// TestValidateSeedsNeedReachable pins that explicit seeds are accepted
// only with Reachable: without it the full range is explored and From
// would split one answer into two job identities.
func TestValidateSeedsNeedReachable(t *testing.T) {
	kmax := 2
	for _, tc := range []struct {
		req     Request
		wantErr string // "" = valid
	}{
		{Request{Alg: "tokenring", N: 3, From: "1,0,2"}, "add -reachable"},
		{Request{Alg: "tokenring", N: 3, Mode: ModeMC, From: "1,0,2"}, "add -reachable"},
		{Request{Alg: "tokenring", N: 3, KMax: &kmax, From: "1,0,2"}, "drop -from"},
		{Request{Alg: "tokenring", N: 3, Reachable: true, From: "1,0,2"}, ""},
		{Request{Alg: "tokenring", N: 3, Mode: ModeMC, Reachable: true, From: "1,0,2"}, ""},
	} {
		err := tc.req.identity().validate()
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("validate(%+v) = %v, want %q", tc.req, err, tc.wantErr)
		}
	}
}
