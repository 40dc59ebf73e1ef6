package cli

// Fault-stack parsing for the network simulator CLI: a comma-separated
// list of fault specs, applied to each publication in list order.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"weakstab/internal/netsim"
)

// FaultGrammar documents the accepted fault specs for flag usage strings.
const FaultGrammar = "latency:fixed:D | latency:uniform:LO:HI | latency:geom:MEAN | " +
	"loss:P | ge:PGB:PBG:LOSSGOOD:LOSSBAD | dup:P | reorder:P:BOUND | " +
	"corrupt:P | crash:RATE:MEANDOWN[:hold]"

// ParseFaults builds a netsim fault stack from a comma-separated spec
// list (see FaultGrammar). An empty spec yields an empty stack — the
// reliable synchronous network.
func ParseFaults(spec string) ([]netsim.Fault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []netsim.Fault
	for _, item := range strings.Split(spec, ",") {
		f, err := parseFault(strings.TrimSpace(item))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func parseFault(item string) (netsim.Fault, error) {
	parts := strings.Split(item, ":")
	bad := func(format string, args ...any) (netsim.Fault, error) {
		return nil, fmt.Errorf("fault %q: %s (grammar: %s)", item, fmt.Sprintf(format, args...), FaultGrammar)
	}
	switch parts[0] {
	case "latency":
		if len(parts) < 2 {
			return bad("missing distribution")
		}
		switch parts[1] {
		case "fixed":
			d, err := intArgs(parts[2:], 1)
			if err != nil {
				return bad("%v", err)
			}
			if d[0] < 1 {
				return bad("need D >= 1")
			}
			return &netsim.Latency{D: netsim.Fixed(d[0])}, nil
		case "uniform":
			d, err := intArgs(parts[2:], 2)
			if err != nil {
				return bad("%v", err)
			}
			if d[0] < 1 || d[1] < d[0] {
				return bad("need 1 <= LO <= HI")
			}
			return &netsim.Latency{D: netsim.Uniform{Lo: d[0], Hi: d[1]}}, nil
		case "geom":
			f, err := floatArgs(parts[2:], 1)
			if err != nil {
				return bad("%v", err)
			}
			if f[0] < 1 {
				return bad("mean must be >= 1")
			}
			return &netsim.Latency{D: netsim.Geometric{Mean: f[0]}}, nil
		default:
			return bad("unknown distribution %q (fixed, uniform, geom)", parts[1])
		}
	case "loss":
		f, err := probArgs(parts[1:], 1)
		if err != nil {
			return bad("%v", err)
		}
		return &netsim.Loss{P: f[0]}, nil
	case "ge":
		f, err := probArgs(parts[1:], 4)
		if err != nil {
			return bad("%v", err)
		}
		if f[0] <= 0 || f[1] <= 0 {
			return bad("transition probabilities must be positive")
		}
		return &netsim.GilbertElliott{PGB: f[0], PBG: f[1], LossGood: f[2], LossBad: f[3]}, nil
	case "dup":
		f, err := probArgs(parts[1:], 1)
		if err != nil {
			return bad("%v", err)
		}
		return &netsim.Duplicate{P: f[0]}, nil
	case "reorder":
		if len(parts) != 3 {
			return bad("want reorder:P:BOUND")
		}
		f, err := probArgs(parts[1:2], 1)
		if err != nil {
			return bad("%v", err)
		}
		b, err := intArgs(parts[2:], 1)
		if err != nil {
			return bad("%v", err)
		}
		if b[0] < 1 {
			return bad("bound must be >= 1")
		}
		return &netsim.Reorder{P: f[0], Bound: b[0]}, nil
	case "corrupt":
		f, err := probArgs(parts[1:], 1)
		if err != nil {
			return bad("%v", err)
		}
		return &netsim.Corrupt{P: f[0]}, nil
	case "crash":
		hold := false
		args := parts[1:]
		if n := len(args); n > 0 && args[n-1] == "hold" {
			hold = true
			args = args[:n-1]
		}
		f, err := floatArgs(args, 2)
		if err != nil {
			return bad("%v", err)
		}
		if f[0] < 0 || f[0] > 1 {
			return bad("rate must be a probability")
		}
		if f[1] < 1 {
			return bad("mean downtime must be >= 1 round")
		}
		return &netsim.CrashRecover{Rate: f[0], MeanDown: f[1], Hold: hold}, nil
	default:
		return bad("unknown fault %q", parts[0])
	}
}

func floatArgs(parts []string, n int) ([]float64, error) {
	if len(parts) != n {
		return nil, fmt.Errorf("want %d numeric argument(s), got %d", n, len(parts))
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad number %q (want a finite number)", p)
		}
		out[i] = v
	}
	return out, nil
}

func probArgs(parts []string, n int) ([]float64, error) {
	out, err := floatArgs(parts, n)
	if err != nil {
		return nil, err
	}
	for _, v := range out {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("probability %g outside [0,1]", v)
		}
	}
	return out, nil
}

func intArgs(parts []string, n int) ([]int32, error) {
	if len(parts) != n {
		return nil, fmt.Errorf("want %d integer argument(s), got %d", n, len(parts))
	}
	out := make([]int32, n)
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out[i] = int32(v)
	}
	return out, nil
}
