// Command outran-top is a live terminal viewer for the KPI stream
// written by outran-sim -kpi. It tail-follows the JSONL file while the
// simulation runs, refreshing a per-cell table with the latest window
// quantiles and a sparkline of recent p99 FCT — top(1) for a RAN
// deployment.
//
// Usage:
//
//	outran-top kpi.jsonl                   follow the stream live
//	outran-top -refresh 500ms kpi.jsonl    faster refresh
//	outran-top -once kpi.jsonl             render one frame and exit
//
// The viewer only ever reads complete lines, so it is safe to point at
// a file the simulator (or a resumed run, which truncates the stream
// back to its checkpoint offset) is still appending to. Truncation is
// detected and the view rebuilt from the start of the file.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"outran/internal/obs"
)

// errUsage marks a command line that could not be understood (exit
// status 2, like the flag package's own failures).
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run is the whole program: flags -> tail the KPI file -> render. It
// returns after one frame with -once, and otherwise only on an error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("outran-top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	refresh := fs.Duration("refresh", time.Second, "refresh interval (wall clock)")
	once := fs.Bool("once", false, "render a single frame from the current file contents and exit")
	history := fs.Int("history", 32, "sparkline length (number of recent windows)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: outran-top [-refresh d] [-once] [-history n] <kpi.jsonl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("%w: want exactly one KPI file", errUsage)
	}
	if *history < 2 {
		*history = 2
	}
	v := newViewer(fs.Arg(0), *history)
	for {
		if err := v.poll(); err != nil {
			return err
		}
		v.render(stdout, !*once)
		if *once {
			return nil
		}
		//outran:simtime live-view refresh pacing; reads files written by a run, never enters results
		time.Sleep(*refresh)
	}
}

// cellView is the retained state of one table row: the most recent
// record plus the p99 history backing the sparkline.
type cellView struct {
	last obs.KPIRecord
	p99s []float64
}

// viewer tails the KPI file and folds records into per-cell views. It
// consumes only complete lines — a partial trailing line stays in rem
// until the writer finishes it.
type viewer struct {
	path    string
	history int

	off   int64
	rem   []byte
	cells map[int]*cellView
	recs  int
}

func newViewer(path string, history int) *viewer {
	return &viewer{path: path, history: history, cells: map[int]*cellView{}}
}

// poll reads everything appended since the last call. A file smaller
// than the consumed offset means the writer truncated it (a resumed
// run rewinding to its checkpoint); the view restarts from scratch.
func (v *viewer) poll() error {
	f, err := os.Open(v.path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < v.off {
		v.off, v.rem = 0, nil
		v.cells = map[int]*cellView{}
		v.recs = 0
	}
	if _, err := f.Seek(v.off, io.SeekStart); err != nil {
		return err
	}
	buf, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	v.off += int64(len(buf))
	data := append(v.rem, buf...)
	for {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		var rec obs.KPIRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn or foreign line; skip rather than die mid-run
		}
		v.fold(rec)
	}
	v.rem = data
	return nil
}

func (v *viewer) fold(rec obs.KPIRecord) {
	v.recs++
	cv := v.cells[rec.Cell]
	if cv == nil {
		cv = &cellView{}
		v.cells[rec.Cell] = cv
	}
	cv.last = rec
	cv.p99s = append(cv.p99s, rec.WinP99Ms)
	if len(cv.p99s) > v.history {
		cv.p99s = cv.p99s[len(cv.p99s)-v.history:]
	}
}

// render draws one frame. In follow mode the frame starts with an ANSI
// home+clear so successive frames overwrite in place.
func (v *viewer) render(w io.Writer, live bool) {
	var b strings.Builder
	if live {
		b.WriteString("\x1b[H\x1b[2J")
	}
	ids := make([]int, 0, len(v.cells))
	for id := range v.cells {
		if id != obs.RollupCell {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var t float64
	if all, ok := v.cells[obs.RollupCell]; ok {
		t = all.last.T.Seconds()
	} else if len(ids) > 0 {
		t = v.cells[ids[0]].last.T.Seconds()
	}
	fmt.Fprintf(&b, "outran-top  %s  t=%.1fs  %d cells  %d records\n",
		v.path, t, len(ids), v.recs)
	if v.recs == 0 {
		b.WriteString("waiting for KPI records...\n")
		io.WriteString(w, b.String())
		return
	}
	fmt.Fprintf(&b, "%5s %9s %10s %10s %7s %6s %5s %9s %6s  %s\n",
		"CELL", "FLOWS/W", "P50 ms", "P99 ms", "SE", "FAIR", "ACT", "QUEUE B", "RETX", "P99 TREND")
	for _, id := range ids {
		writeRow(&b, fmt.Sprintf("%5d", id), v.cells[id])
	}
	if all, ok := v.cells[obs.RollupCell]; ok {
		writeRow(&b, "  ALL", all)
	}
	io.WriteString(w, b.String())
}

func writeRow(b *strings.Builder, label string, cv *cellView) {
	r := cv.last
	var queue int64
	for _, q := range r.QueueBytes {
		queue += q
	}
	fmt.Fprintf(b, "%s %9d %10.2f %10.2f %7.3f %6.3f %5d %9d %5.1f%%  %s\n",
		label, r.WinFlows, r.WinP50Ms, r.WinP99Ms, r.SE, r.Fairness,
		r.ActiveFlows, queue, 100*r.HARQRetxRate, sparkline(cv.p99s))
}

// sparkline renders values as a fixed ramp scaled to the window's own
// maximum, so each row shows its trend shape rather than a cross-cell
// comparison.
func sparkline(vals []float64) string {
	ramp := []rune("▁▂▃▄▅▆▇█")
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * 7)
			if i > 7 {
				i = 7
			}
		}
		b.WriteRune(ramp[i])
	}
	return b.String()
}
