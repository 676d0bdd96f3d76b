package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the traced run. Spans are recorded
// only from the benchmark's own files, around calls into the
// simulator's public functions; Parent is the span that caused this
// one (0 for a pass root) and every span of one pass shares Pass.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Pass    string `json:"pass"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends; nothing is written
// while a measurement is in flight.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: now()} }

// begin opens a span and returns its id (ids are 1-based so that 0 can
// mean "no parent").
func (l *spanLog) begin(pass, name string, parent int) int {
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Pass: pass, Name: name,
		StartNs: now().Sub(l.epoch).Nanoseconds(),
	})
	return len(l.spans)
}

// end closes a span and returns its duration in nanoseconds.
func (l *spanLog) end(id int) float64 {
	s := &l.spans[id-1]
	s.EndNs = now().Sub(l.epoch).Nanoseconds()
	return float64(s.EndNs - s.StartNs)
}

// selfNs returns each span's self time: its duration minus the part of
// it its direct children cover.
func (l *spanLog) selfNs() []int64 {
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent > 0 {
			self[s.Parent-1] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// validate checks that the span forest is well formed: every span is
// closed, lies inside its parent, belongs to its parent's pass, has a
// non-negative self time, and every pass has exactly one root.
func (l *spanLog) validate() error {
	roots := map[string]int{}
	for _, s := range l.spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d %q: ends before it starts (unclosed?)", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots[s.Pass]++
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d %q: parent %d is not an earlier span", s.ID, s.Name, s.Parent)
		}
		p := l.spans[s.Parent-1]
		if p.Pass != s.Pass {
			return fmt.Errorf("span %d %q: pass %q differs from parent's %q", s.ID, s.Name, s.Pass, p.Pass)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d %q: [%d,%d] outside parent %q [%d,%d]", s.ID, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
	for i, self := range l.selfNs() {
		if self < 0 {
			return fmt.Errorf("span %d %q: negative self time %d ns", i+1, l.spans[i].Name, self)
		}
	}
	for _, s := range l.spans {
		if roots[s.Pass] != 1 {
			return fmt.Errorf("pass %q has %d root spans, want 1", s.Pass, roots[s.Pass])
		}
	}
	return nil
}

// spanFile is the -trace-out document.
type spanFile struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Spans    []span  `json:"spans"`
	SelfNs   []int64 `json:"self_ns"`
}

func (l *spanLog) write(path, workload string, seed uint64) error {
	buf, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: l.spans, SelfNs: l.selfNs()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
