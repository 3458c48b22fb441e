package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationsMatch holds BENCHMARK.json and the compiled-in tables
// together, and both to the limits the driver's contract sets.
func TestDeclarationsMatch(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(d.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	for i, w := range workloads {
		got := d.Workloads[i]
		if got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, tc := range []struct {
		what      string
		got, want []metricDef
	}{{"end_to_end", d.EndToEnd, endToEnd}, {"per_layer", d.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", tc.what, len(tc.got), len(tc.want))
		}
		for i, m := range tc.want {
			if tc.got[i] != m {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", tc.what, i, tc.got[i], m)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != lower && m.Better != higher {
				t.Errorf("metric %s: better is %q", m.Name, m.Better)
			}
			if bounded := tc.what == "end_to_end"; bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("metric %s: bound %v", m.Name, m.Bound)
			}
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != lower {
		t.Errorf("the contract needs setup_s in s, lower is better; got %+v", endToEnd[0])
	}
	for _, m := range endToEnd[1:] {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s, which should have the widest", m.Name)
		}
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", d.RunSeconds)
	}
	// 4 + 22 per workload runs, each run_seconds plus about 7 s of
	// bring-ups, warm-up and failover probe, must fit the driver's 3420 s
	// with room for two builds.
	if total := (4 + 22*len(workloads)) * (d.RunSeconds + 7); total > 3000 {
		t.Errorf("%d runs of about %d s each come to %d s, too close to the driver's 3420 s", 4+22*len(workloads), d.RunSeconds+7, total)
	}
}

// smokeShape shrinks a run to about a second.
var smokeShape = shape{
	WarmUp:          100 * time.Millisecond,
	Slice:           time.Second,
	SetupSamples:    2,
	CycleLead:       50 * time.Millisecond,
	CycleTail:       20 * time.Millisecond,
	SignalsPerCrash: 1,
	MinRounds:       1,
	ProbeScale:      1 << 30, // one iteration of every probe
}

// TestSmoke runs every workload for smokeSeconds, untraced and traced (which
// runs every layer probe at one iteration), and checks that nothing
// failed and that exactly the declared metrics come out.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			out := runWorkload(smokeShape, w, 7, smokeSeconds*time.Second, traced)
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", w.Name, traced, out.Correct, out.Attempted, out.Failed, out.Error)
				continue
			}
			var got, names []string
			for name := range out.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				names = append(names, m.Name)
			}
			sort.Strings(got)
			sort.Strings(names)
			if len(got) != len(names) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.Name, traced, len(got), len(names))
				continue
			}
			for i := range got {
				if got[i] != names[i] {
					t.Errorf("%s traced=%v: reported %q where %q is declared", w.Name, traced, got[i], names[i])
				}
			}
			if !traced {
				for name, v := range out.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", w.Name, name, v.Value)
					}
				}
				continue
			}
			// What never runs under crash-tolerant NewTOP must read exactly
			// zero there, and must not on the fail-signal workloads.
			for _, name := range []string{"core.new_msgs_per_multicast", "core.sync_msgs_per_multicast", "sig.verify_miss_per_multicast", "fsnewtop.out_msgs_per_multicast"} {
				zero := out.Metrics[name].Value == 0
				if expectZero := w.System == "newtop"; zero != expectZero {
					t.Errorf("%s: %s = %v", w.Name, name, out.Metrics[name].Value)
				}
			}
		}
	}
}
