package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Row pairs the two systems' results at one sweep point.
type Row struct {
	X        int // sweep variable: members (Fig6/7) or bytes (Fig8)
	NewTOP   Result
	FSNewTOP Result
	// Errs records per-system run failures ("" = ok).
	NewTOPErr, FSNewTOPErr string
	// Refused reports that a run at this point was refused before anything
	// was deployed (ErrRefused): a usage error, not a measurement.
	Refused bool
}

// sweep runs both systems at every point, on every lane.
func sweep(base Options, xs []int, apply func(*Options, int)) []Row {
	rows := make([]Row, 0, len(xs))
	for _, x := range xs {
		row := Row{X: x}
		run := func(sys System) (Result, string) {
			o := base
			o.System = sys
			apply(&o, x)
			res, err := Run(o)
			if err == nil {
				return res, ""
			}
			row.Refused = row.Refused || errors.Is(err, ErrRefused)
			return res, err.Error()
		}
		row.NewTOP, row.NewTOPErr = run(SystemNewTOP)
		row.FSNewTOP, row.FSNewTOPErr = run(SystemFSNewTOP)
		rows = append(rows, row)
		if row.Refused {
			break // a usage error: the invocation needs fixing, not more points
		}
	}
	return rows
}

// RunFig6 regenerates Figure 6: symmetric total ordering latency for small
// (3-byte) messages, group sizes 2..10.
func RunFig6(base Options, sizes []int) []Row {
	if sizes == nil {
		sizes = []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	base.MsgSize = 3
	return sweep(base, sizes, func(o *Options, n int) { o.Members = n })
}

// RunFig7 regenerates Figure 7: throughput vs group size 2..15.
func RunFig7(base Options, sizes []int) []Row {
	if sizes == nil {
		sizes = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	}
	base.MsgSize = 3
	return sweep(base, sizes, func(o *Options, n int) { o.Members = n })
}

// RunFig8 regenerates Figure 8: throughput vs message size, 0k..10k bytes
// ("0k" = the 3-byte minimum), for a 10-member group unless base.Members
// says otherwise (the multi-process lane sizes the group by -procs).
func RunFig8(base Options, bytes []int) []Row {
	if bytes == nil {
		bytes = []int{3, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192, 9216, 10240}
	}
	if base.Members == 0 {
		base.Members = 10
	}
	if base.Bandwidth == 0 {
		// 100 Mb LAN ≈ 12.5 MB/s: gives message size its Figure 8 effect.
		base.Bandwidth = 12_500_000
	}
	return sweep(base, bytes, func(o *Options, b int) { o.MsgSize = b })
}

// FormatFig6 renders the Figure 6 table: mean ordering latency per group
// size plus the FS overhead.
func FormatFig6(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — symmetric total order latency (3-byte messages)\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %10s\n", "members", "NewTOP", "FS-NewTOP", "overhead")
	for _, r := range rows {
		if r.NewTOPErr != "" || r.FSNewTOPErr != "" {
			fmt.Fprintf(&b, "%-8d run error: %s%s\n", r.X, r.NewTOPErr, r.FSNewTOPErr)
			continue
		}
		nt, fs := r.NewTOP.Latency.Mean, r.FSNewTOP.Latency.Mean
		fmt.Fprintf(&b, "%-8d %14v %14v %9.0f%%\n",
			r.X, nt.Round(time.Microsecond), fs.Round(time.Microsecond), overheadPct(float64(nt), float64(fs)))
	}
	return b.String()
}

// FormatFig7 renders the Figure 7 table: throughput per group size.
func FormatFig7(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — throughput vs group size (msgs/second)\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %10s\n", "members", "NewTOP", "FS-NewTOP", "overhead")
	for _, r := range rows {
		if r.NewTOPErr != "" || r.FSNewTOPErr != "" {
			fmt.Fprintf(&b, "%-8d run error: %s%s\n", r.X, r.NewTOPErr, r.FSNewTOPErr)
			continue
		}
		fmt.Fprintf(&b, "%-8d %14.0f %14.0f %9.0f%%\n",
			r.X, r.NewTOP.Throughput, r.FSNewTOP.Throughput,
			overheadPct(r.FSNewTOP.Throughput, r.NewTOP.Throughput))
	}
	return b.String()
}

// FormatFig8 renders the Figure 8 table: throughput per message size at
// the group size the rows were run at.
func FormatFig8(rows []Row) string {
	var b strings.Builder
	members := 0
	for _, r := range rows {
		members = max(members, r.NewTOP.Members, r.FSNewTOP.Members)
	}
	fmt.Fprintf(&b, "Figure 8 — throughput vs message size (%d members, msgs/second)\n", members)
	fmt.Fprintf(&b, "%-8s %14s %14s %12s\n", "size", "NewTOP", "FS-NewTOP", "difference")
	for _, r := range rows {
		if r.NewTOPErr != "" || r.FSNewTOPErr != "" {
			fmt.Fprintf(&b, "%-8s run error: %s%s\n", sizeLabel(r.X), r.NewTOPErr, r.FSNewTOPErr)
			continue
		}
		fmt.Fprintf(&b, "%-8s %14.0f %14.0f %12.0f\n",
			sizeLabel(r.X), r.NewTOP.Throughput, r.FSNewTOP.Throughput,
			r.NewTOP.Throughput-r.FSNewTOP.Throughput)
	}
	return b.String()
}

// overheadPct computes how much larger big is than small, in percent.
// Arguments are (smaller-is-better-baseline, measured) for latency and
// (measured, baseline) for throughput — callers pass in the order that
// yields "FS cost".
func overheadPct(base, other float64) float64 {
	if base == 0 {
		return 0
	}
	return (other - base) / base * 100
}

func sizeLabel(b int) string {
	if b < 1024 {
		return fmt.Sprintf("%dB", b)
	}
	return fmt.Sprintf("%dk", b/1024)
}
