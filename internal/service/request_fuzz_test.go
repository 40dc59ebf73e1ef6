package service

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSeeds checks that the seed syntax never panics and that every
// accepted seed list holds at least one configuration of exactly n states.
func FuzzParseSeeds(f *testing.F) {
	f.Add("1,0,2;0,0,0", 3)
	f.Add(" 1 , 2 ; 3,4 ", 2)
	f.Add("0", 1)
	f.Add("", 0)
	f.Add("1,,2", 3)
	f.Add("1;2;x", 1)
	f.Add("-1,99999999999999999999", 2)
	f.Fuzz(func(t *testing.T, s string, n int) {
		if n > 1<<10 {
			n %= 1 << 10 // keep the allocation of an accepted seed small
		}
		cfgs, err := ParseSeeds(s, n)
		if err != nil {
			return
		}
		if len(cfgs) == 0 {
			t.Fatalf("ParseSeeds(%q, %d) accepted an empty seed list", s, n)
		}
		if want := strings.Count(s, ";") + 1; len(cfgs) != want {
			t.Fatalf("ParseSeeds(%q, %d) = %d seeds, want %d", s, n, len(cfgs), want)
		}
		for i, cfg := range cfgs {
			if len(cfg) != n {
				t.Fatalf("ParseSeeds(%q, %d): seed %d has %d states", s, n, i, len(cfg))
			}
		}
	})
}

// FuzzRequestIdentity checks that the job identity of any decodable
// request body is a fixed point — identity(identity(r)) == identity(r) —
// and that validation gives the same verdict on both, so a normalized
// echo resubmitted as a request names the same job.
func FuzzRequestIdentity(f *testing.F) {
	for _, body := range []string{
		`{"alg":"tokenring","n":6,"kmax":3}`,
		`{"alg":"TokenRing","n":6,"mode":"MC","seed":1}`,
		`{"alg":"leadertree","n":5,"topology":"random","seed":7,"policy":"Distributed"}`,
		`{"alg":"coloring","n":5,"transform":true,"reachable":true,"from":"0,1,0,1,0","kfaults":1}`,
		`{"alg":"herman","n":7,"k":3,"mode":"sweep","kmax":-1,"workers":4,"timeout_ms":100}`,
		`{"alg":"dijkstra","n":4,"k":4,"mode":"mc","trials":-1,"ci":0.5,"mc_max_steps":64}`,
		`{"mode":"bogus"}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Request
		if err := json.Unmarshal(body, &r); err != nil {
			return
		}
		once := r.identity()
		twice := once.identity()
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("identity not idempotent for %s:\nonce:  %+v\ntwice: %+v", body, once, twice)
		}
		errOnce, errTwice := once.validate(), twice.validate()
		if (errOnce == nil) != (errTwice == nil) ||
			(errOnce != nil && errOnce.Error() != errTwice.Error()) {
			t.Fatalf("validate verdict differs for %s: %v vs %v", body, errOnce, errTwice)
		}
	})
}
