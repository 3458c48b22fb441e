package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// environment is the stamp every result file carries: enough to tell
// whether two files may be compared at all.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Host       string `json:"host"`
}

func stampEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	env.Host, _ = os.Hostname()
	// The toolchain stamps the binary with the commit when it is built
	// inside a git checkout; elsewhere the commit stays unknown.
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && env.Commit != "unknown" {
			env.Commit += "+dirty"
		}
	}
	return env
}

// parameters is everything that shapes a run besides the code under test.
type parameters struct {
	Workload        spec    `json:"workload"`
	FailoverCycle   spec    `json:"failover_cycle"`
	Shape           shape   `json:"shape"`
	Seconds         int     `json:"seconds"`
	LinkLatencyUs   float64 `json:"link_latency_us"`
	SettleTimeoutS  float64 `json:"settle_timeout_s"`
	OrderSlack      int     `json:"order_slack"`
	ClusterDefaults string  `json:"cluster_defaults"`
}

// result is one result file: one run of one workload.
type result struct {
	Benchmark   string      `json:"benchmark"`
	Time        time.Time   `json:"time"`
	Environment environment `json:"environment"`
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Trace       bool        `json:"trace"`
	Parameters  parameters  `json:"parameters"`
	outcome
}

func newResult(sh shape, w spec, seed int64, seconds int, traced bool, out *outcome) *result {
	return &result{
		Benchmark:   "fsnewtop/benchmark",
		Time:        time.Now().UTC(),
		Environment: stampEnvironment(),
		Workload:    w.Name,
		Seed:        seed,
		Trace:       traced,
		Parameters: parameters{
			Workload: w, FailoverCycle: failoverSpec, Shape: sh, Seconds: seconds,
			LinkLatencyUs:   float64(linkLatency) / 1e3,
			SettleTimeoutS:  settleTimeout.Seconds(),
			OrderSlack:      orderSlack(w),
			ClusterDefaults: "delta 150ms unless the workload sets delta_ms, tick 5ms, HMAC signing, batching off, ORB pool 10",
		},
		outcome: *out,
	}
}

// write stores the result, and the spans of a traced run beside it, under
// dir — never in the source tree unless the caller points it there.
func (r *result) write(dir string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating the result directory: %w", err)
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d-%d", r.Workload, r.Seed, trace, r.Time.UnixNano())
	path := filepath.Join(dir, base+".json")
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("encoding the result: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("writing the result: %w", err)
	}
	if len(spans) > 0 {
		data, err := json.Marshal(spans)
		if err != nil {
			return "", fmt.Errorf("encoding the spans: %w", err)
		}
		if err := os.WriteFile(filepath.Join(dir, base+".spans.json"), data, 0o644); err != nil {
			return "", fmt.Errorf("writing the spans: %w", err)
		}
	}
	return path, nil
}
