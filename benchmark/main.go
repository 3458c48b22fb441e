// Command benchmark is this repository's benchmark: five named
// workloads, six end-to-end metrics and a per-layer cost ledger, all
// measured from outside the stack through the public cluster and
// transport APIs. README.md in this directory defines every name.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run
//	benchmark -all [-seed N] [-seconds S]                    every workload, untraced then traced
//	benchmark -layers                                        the layer probes alone
//	benchmark -compare OLD NEW                               judge two sets of results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seeds payload bytes, phase offsets, victim order and the simulated network")
		seconds  = flag.Int("seconds", 18, "measured time of one run: the steady window, or on fs_failover the failover cycles")
		traced   = flag.Int("trace", 0, "1: run behind the tracing decorator and report the per-layer metrics instead of the end-to-end ones")
		all      = flag.Bool("all", false, "run every workload, untraced and traced")
		layers   = flag.Bool("layers", false, "run only the layer probes")
		compare  = flag.Bool("compare", false, "compare two result files or directories: -compare OLD NEW")
		list     = flag.Bool("list", false, "list the workloads")
		outDir   = flag.String("out", filepath.Join(os.TempDir(), "fsnewtop-benchmark"), "directory for result and span files")
	)
	flag.Parse()

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-24s %s\n", w.Name, w.Why)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatalf(2, "usage: benchmark -compare OLD NEW")
		}
		worse, err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1), endToEnd)
		if err != nil {
			fatalf(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *layers:
		probes, err := layerProbes(1)
		if err != nil {
			fatalf(1, "%v", err)
		}
		out := &outcome{Metrics: make(map[string]value)}
		for name, v := range probes {
			out.set(name, v, probeRepeats)
		}
		fmt.Print(out)
	case *all:
		ok := true
		for _, w := range workloads {
			for _, tr := range []bool{false, true} {
				ok = runOne(w, *seed, *seconds, tr, *outDir) && ok
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, found := workloadByName(*workload)
		if !found {
			fatalf(2, "unknown workload %q (see -list)", *workload)
		}
		if *seconds < 1 || (*traced != 0 && *traced != 1) {
			fatalf(2, "-seconds must be at least 1 and -trace 0 or 1")
		}
		if !runOne(w, *seed, *seconds, *traced == 1, *outDir) {
			os.Exit(1)
		}
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// runOne runs one workload once, prints every metric by name for a
// reader, writes the result (and, traced, the span) file, and prints the
// one-line JSON summary last. It reports whether the run was correct; an
// incorrect run prints no summary.
func runOne(w spec, seed int64, seconds int, traced bool, outDir string) bool {
	started := time.Now()
	out := runWorkload(runShape, w, seed, time.Duration(seconds)*time.Second, traced)
	fmt.Printf("%s seed=%d seconds=%d trace=%v: attempted %d, failed %d, %.1fs\n",
		w.Name, seed, seconds, traced, out.Attempted, out.Failed, time.Since(started).Seconds())
	fmt.Print(out)

	res := newResult(runShape, w, seed, seconds, traced, out)
	path, err := res.write(outDir, out.spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return false
	}
	fmt.Printf("result file: %s\n", path)
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, out.Error)
		return false
	}

	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, make(map[string]value)}
	for name, v := range out.Metrics {
		summary.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return true
}
