package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"outran/internal/cli"
	"outran/internal/obs"
)

// top is top(1) for a RAN deployment: it tail-follows the KPI stream
// while the simulation writes it, refreshing a per-cell table with the
// latest window quantiles and a sparkline of recent p99 FCT. It returns
// after one frame with -once, and otherwise only on an error.
//
// It decodes only complete lines, so it is safe to point at a file the
// simulator (or a resumed run, which truncates the stream back to its
// checkpoint offset) is still appending to. Truncation is detected and
// the view rebuilt from the start of the file.
func top(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("outran-trace top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	refresh := fs.Duration("refresh", time.Second, "refresh interval (wall clock)")
	once := fs.Bool("once", false, "render a single frame from the current file contents and exit")
	history := fs.Int("history", 32, "sparkline length (number of recent windows)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", cli.ErrUsage, err)
	}
	if fs.NArg() != 1 {
		return errUsage
	}
	v := newViewer(fs.Arg(0), max(*history, 2))
	for {
		if err := v.poll(); err != nil {
			return err
		}
		v.render(stdout, !*once)
		if *once {
			return nil
		}
		// Real time: live-view refresh pacing; reads files written by a run, never enters results
		time.Sleep(*refresh)
	}
}

// cellView is the retained state of one table row: the most recent
// record plus the p99 history backing the sparkline.
type cellView struct {
	last obs.KPIRecord
	p99s []float64
}

// viewer tails the KPI file and folds records into per-cell views.
type viewer struct {
	path    string
	history int

	off   int64 // bytes of complete lines folded so far
	cells map[int]*cellView
	recs  int
}

func newViewer(path string, history int) *viewer {
	return &viewer{path: path, history: history, cells: map[int]*cellView{}}
}

// poll folds every complete line appended since the last call; a torn
// trailing line is left for the next poll. A file smaller than the
// consumed offset means the writer truncated it (a resumed run
// rewinding to its checkpoint); the view restarts from scratch.
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
		v.off, v.cells, v.recs = 0, map[int]*cellView{}, 0
	}
	end, err := linesEnd(f, v.off, st.Size())
	if err != nil {
		return err
	}
	lines := io.NewSectionReader(f, v.off, end-v.off)
	v.off = end
	return obs.ScanKPI(lines, v.fold)
}

// linesEnd returns the offset just past the last newline in f's bytes
// [off, size), or off when they hold none: the end of the complete
// lines. It reads backwards from size, so a torn trailing line costs
// one short read.
func linesEnd(f *os.File, off, size int64) (int64, error) {
	buf := make([]byte, 4096)
	for end := size; end > off; {
		start := max(off, end-int64(len(buf)))
		n, err := f.ReadAt(buf[:end-start], start)
		if err != nil && err != io.EOF {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			return start + int64(i) + 1, nil
		}
		end = start
	}
	return off, nil
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
	fmt.Fprintf(&b, "outran-trace top  %s  t=%.1fs  %d cells  %d records\n",
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
	fmt.Fprintf(b, "%s %9d %10.2f %10.2f %7.3f %6.3f %5d %9d %5.1f%%  %s\n",
		label, r.WinFlows, r.WinP50Ms, r.WinP99Ms, r.SE, r.Fairness,
		r.ActiveFlows, sumQueue(r), 100*r.HARQRetxRate, sparkline(cv.p99s))
}

// sparkline renders values as a fixed ramp scaled to the window's own
// maximum, so each row shows its trend shape rather than a cross-cell
// comparison.
func sparkline(vals []float64) string {
	ramp := []rune("▁▂▃▄▅▆▇█")
	peak := slices.Max(vals)
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if peak > 0 {
			i = min(int(v/peak*7), 7)
		}
		b.WriteRune(ramp[i])
	}
	return b.String()
}
