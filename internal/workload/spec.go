package workload

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"outran/internal/rng"
	"outran/internal/sim"
)

// ClassKind names a per-app traffic class.
type ClassKind string

// Available traffic classes.
const (
	// ClassWeb is the paper's workload: Poisson arrivals with sizes
	// from an empirical CDF preset (default "lte", Table 2).
	ClassWeb ClassKind = "web"
	// ClassVideo is ABR streaming: per-session fixed-size segments
	// fetched on a cadence (on/off pacing — a segment downloads, the
	// player idles until the next one).
	ClassVideo ClassKind = "video"
	// ClassIoT is machine-type traffic: tiny keepalive payloads on a
	// slow per-device cadence.
	ClassIoT ClassKind = "iot"
	// ClassBulk is background transfer: Poisson arrivals with sizes
	// from a bulky preset (default "websearch", mean ~1.92 MB).
	ClassBulk ClassKind = "bulk"
	// ClassVoice is VoIP-like traffic: small talk-spurt bundles on a
	// fast per-session cadence.
	ClassVoice ClassKind = "voice"
	// ClassIncast is the §6.3 worst case: periodic synchronized bursts
	// of identical short flows.
	ClassIncast ClassKind = "incast"
)

// ClassSpec composes one traffic class into a Spec. Zero-valued knobs
// take per-kind defaults, so {Kind: ClassWeb} alone is a valid class.
// ClassSpec is plain data: it names its size distribution instead of
// holding one, which keeps a Spec printable, comparable and safe to
// embed in a checkpoint-fingerprinted ran.Config.
type ClassSpec struct {
	Kind ClassKind

	// Share is the class's fraction of the spec's offered volume.
	// Shares are normalized across the spec; 0 means an equal share of
	// whatever the explicit shares leave unclaimed.
	Share float64

	// Dist names a size-distribution preset (ByName) for web/bulk
	// classes. Default "lte" for web, "websearch" for bulk.
	Dist string

	// Begin and End restrict the class to a sub-window of the arrival
	// span, as fractions in [0, 1]; both zero means the whole span.
	// The class's full volume share is packed into its window, which
	// is how an app-mix shift is expressed.
	Begin, End float64

	// Size overrides the kind's unit size in bytes: video segment
	// (default 384 KB), IoT keepalive (128 B), voice spurt (3 KB),
	// incast flow (8 KB). Ignored by web/bulk.
	Size int64

	// Every overrides the kind's cadence: video segment interval
	// (default 3 s), IoT keepalive period (5 s), voice spurt interval
	// (400 ms). Ignored by web/bulk/incast.
	Every sim.Time

	// Burst is the incast burst width in flows (default 30).
	Burst int
}

// Bounds on the class fields, far past any real app's: with them and
// a volume under maxVolume, no product the generators form overflows.
const (
	maxUnit   = 1 << 40 // ClassSpec.Size, bytes
	maxBurst  = 1 << 20 // ClassSpec.Burst, flows
	maxVolume = 1 << 62 // the spec's offered bytes
)

// Per-kind unit defaults.
const (
	defaultVideoSegment = 384 * KB
	defaultVideoEvery   = 3 * sim.Second
	defaultIoTSize      = 128
	defaultIoTEvery     = 5 * sim.Second
	defaultVoiceSize    = 3 * KB
	defaultVoiceEvery   = 400 * sim.Millisecond
	defaultIncastSize   = 8 * KB
	defaultIncastBurst  = 30
)

// Spec is the declarative workload description a ran.Config carries:
// what traffic to offer, how much, and how it varies over time. It is
// plain data — no pointers, functions or maps — so it fingerprints and
// compares like the rest of the configuration. The harness instantiates
// it against the cell (Build) to obtain the Source it pulls from.
type Spec struct {
	// Classes composes the generated traffic. Empty means no generated
	// workload (Extra/TraceFile-only specs are valid).
	Classes []ClassSpec

	// Load is the total offered load as a fraction of the cell's
	// effective capacity, split across Classes by Share.
	Load float64

	// Envelope shapes the arrival rate over the span (applies to every
	// class). Zero value = stationary.
	Envelope Envelope

	// MaxFlows caps total generation (0 = no cap).
	MaxFlows int

	// TraceFile, when set, replays a recorded workload trace (the
	// versioned JSONL format of WriteTrace) instead of generating
	// traffic. Mutually exclusive with Classes/Load/Envelope.
	TraceFile string

	// Extra flows are merged into the stream as-is — the hook for
	// scripted scenarios (handover continuations, targeted probes).
	Extra []FlowSpec
}

// Env is the cell context a Spec is instantiated against: the harness
// supplies it at build time so specs stay portable across topologies.
type Env struct {
	NumUEs      int
	CapacityBps float64  // effective cell capacity the load calibrates to
	Span        sim.Time // arrival span (warmup + window + tail)
	// Flows, when non-zero, is the length the schedule must have: a
	// restore that rebuilds a checkpointed schedule sets it from the
	// checkpoint, so a corrupt record fails Generate early instead of
	// costing an unbounded build.
	Flows int
}

// Enabled reports whether the spec describes any traffic at all.
func (s Spec) Enabled() bool {
	return len(s.Classes) > 0 || len(s.Extra) > 0 || s.TraceFile != ""
}

// Validate checks the spec and returns an error naming the offending
// field, mirroring ran.Config.Validate.
func (s Spec) Validate() error {
	if s.TraceFile != "" {
		if len(s.Classes) > 0 {
			return fmt.Errorf("workload: Spec.TraceFile and Spec.Classes are mutually exclusive")
		}
		if s.Load != 0 {
			return fmt.Errorf("workload: Spec.Load = %v, want 0 with TraceFile (the trace fixes the volume)", s.Load)
		}
		if s.Envelope.Kind != EnvNone {
			return fmt.Errorf("workload: Spec.Envelope.Kind = %q, want none with TraceFile (the trace fixes the timing)", s.Envelope.Kind)
		}
	}
	if math.IsNaN(s.Load) || math.IsInf(s.Load, 0) {
		return fmt.Errorf("workload: Spec.Load = %v, want a finite fraction of capacity", s.Load)
	}
	if len(s.Classes) > 0 && s.Load <= 0 {
		return fmt.Errorf("workload: Spec.Load = %v, want > 0 with Classes", s.Load)
	}
	if s.MaxFlows < 0 {
		return fmt.Errorf("workload: Spec.MaxFlows = %d, want >= 0", s.MaxFlows)
	}
	if err := s.Envelope.validate(); err != nil {
		return err
	}
	for i, c := range s.Classes {
		if err := c.validate(); err != nil {
			return fmt.Errorf("workload: Spec.Classes[%d] (%s): %w", i, c.Kind, err)
		}
	}
	for i, f := range s.Extra {
		switch {
		case f.Size <= 0:
			return fmt.Errorf("workload: Spec.Extra[%d].Size = %d, want > 0", i, f.Size)
		case f.Start < 0:
			return fmt.Errorf("workload: Spec.Extra[%d].Start = %v, want >= 0", i, f.Start)
		case f.UE < 0:
			return fmt.Errorf("workload: Spec.Extra[%d].UE = %d, want >= 0", i, f.UE)
		}
	}
	return nil
}

// validate checks one class spec (field-naming errors; the caller
// prefixes the class index).
func (c ClassSpec) validate() error {
	switch c.Kind {
	case ClassWeb, ClassVideo, ClassIoT, ClassBulk, ClassVoice, ClassIncast:
	default:
		return fmt.Errorf("Kind: unknown class %q", c.Kind)
	}
	// The range checks are written so that NaN fails them.
	if !(c.Share >= 0 && c.Share <= 1) {
		return fmt.Errorf("Share = %v, want 0..1", c.Share)
	}
	if c.Dist != "" {
		if c.Kind != ClassWeb && c.Kind != ClassBulk {
			return fmt.Errorf("Dist = %q, only web/bulk classes draw from a distribution", c.Dist)
		}
		if _, ok := ByName(c.Dist); !ok {
			return fmt.Errorf("Dist: unknown preset %q", c.Dist)
		}
	}
	if !(c.Begin >= 0 && c.Begin < 1) {
		return fmt.Errorf("Begin = %v, want 0..1", c.Begin)
	}
	if !(c.End >= 0 && c.End <= 1) || (c.End != 0 && c.End <= c.Begin) {
		return fmt.Errorf("End = %v, want (Begin, 1]", c.End)
	}
	if c.Size < 0 || c.Size > maxUnit {
		return fmt.Errorf("Size = %d, want 0..%d", c.Size, int64(maxUnit))
	}
	if c.Every < 0 {
		return fmt.Errorf("Every = %v, want >= 0", c.Every)
	}
	if c.Burst < 0 || c.Burst > maxBurst {
		return fmt.Errorf("Burst = %d, want 0..%d", c.Burst, maxBurst)
	}
	return nil
}

// Build instantiates the spec against a cell environment as one sorted
// Source: Generate's schedule, streamed from its first flow.
func (s Spec) Build(env Env, r *rng.Source) (Source, error) {
	sch, err := s.Generate(env, r)
	if err != nil {
		return nil, err
	}
	return sch.Source(), nil
}

// Generate instantiates the spec against a cell environment: every
// class on its own forked rng stream, in class order, warped through
// the envelope and sorted; the trace file's flows; Extra. The same
// (spec, env, seed) triple always yields the same schedule. With
// env.Flows set, a schedule of any other length is an error, and
// generation stops as soon as it can tell.
func (s Spec) Generate(env Env, r *rng.Source) (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if env.NumUEs <= 0 {
		return nil, fmt.Errorf("workload: Env.NumUEs = %d, want > 0", env.NumUEs)
	}
	if env.Flows < 0 {
		return nil, fmt.Errorf("workload: Env.Flows = %d, want >= 0", env.Flows)
	}
	if s.MaxFlows > 0 && env.Flows > s.MaxFlows {
		return nil, fmt.Errorf("workload: Env.Flows = %d, more than Spec.MaxFlows %d", env.Flows, s.MaxFlows)
	}
	// budget bounds the flows the parts may hold together. MaxFlows cuts
	// the merged stream, not the parts, so a schedule cut at MaxFlows
	// says nothing about how many flows the parts hold.
	budget := math.MaxInt
	if env.Flows > 0 && (s.MaxFlows == 0 || env.Flows < s.MaxFlows) {
		budget = env.Flows
	}
	sch := &Schedule{max: s.MaxFlows}
	add := func(flows []FlowSpec) error {
		if len(flows) > budget {
			return errBudget
		}
		budget -= len(flows)
		if len(flows) > 0 {
			sch.parts = append(sch.parts, flows)
		}
		return nil
	}
	if s.TraceFile != "" {
		data, err := os.ReadFile(s.TraceFile)
		if err != nil {
			return nil, fmt.Errorf("workload: Spec.TraceFile: %w", err)
		}
		flows, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("workload: Spec.TraceFile %s: %w", s.TraceFile, err)
		}
		sch.TraceSum = sha256.Sum256(data)
		if err := add(flows); err != nil {
			return nil, err
		}
	}
	if len(s.Classes) > 0 {
		if env.CapacityBps <= 0 {
			return nil, fmt.Errorf("workload: Env.CapacityBps = %v, want > 0", env.CapacityBps)
		}
		if env.Span <= 0 {
			return nil, fmt.Errorf("workload: Env.Span = %v, want > 0", env.Span)
		}
		vol := s.Load * env.CapacityBps / 8 * env.Span.Seconds()
		if vol > maxVolume {
			return nil, fmt.Errorf("workload: Spec.Load = %v offers %g bytes, more than %g", s.Load, vol, float64(maxVolume))
		}
		totalVol := int64(vol)
		shares := normalizeShares(s.Classes)
		warp := newWarper(s.Envelope, env.Span)
		var keys []startKey
		for i, c := range s.Classes {
			cr := r.Fork() // class order fixes the stream assignment
			vol := int64(float64(totalVol) * shares[i])
			flows, err := c.generate(vol, env, cr, budget)
			if err != nil {
				return nil, fmt.Errorf("workload: Spec.Classes[%d] (%s): %w", i, c.Kind, err)
			}
			for j := range flows {
				flows[j].Start = warp.warp(flows[j].Start)
			}
			keys = sortByStart(flows, keys)
			if err := add(flows); err != nil {
				return nil, err
			}
		}
	}
	if len(s.Extra) > 0 {
		extra := slices.Clone(s.Extra)
		sortByStart(extra, nil)
		if err := add(extra); err != nil {
			return nil, err
		}
	}
	if n := sch.Len(); env.Flows > 0 && n != env.Flows {
		return nil, fmt.Errorf("workload: schedule has %d flows, Env.Flows expects %d", n, env.Flows)
	}
	return sch, nil
}

// errBudget reports a part that would take the schedule past the flow
// count Env.Flows expects.
var errBudget = errors.New("workload: schedule has more flows than Env.Flows expects")

// Schedule is a Spec instantiated by Generate: the flows of each part —
// the trace file, each class, Extra — in arrays of their own, each
// sorted by start. Source streams them as one; the arrays are the only
// copy of the schedule, so nothing collects it whole.
type Schedule struct {
	parts [][]FlowSpec
	max   int // Spec.MaxFlows
	// TraceSum is the SHA-256 of the trace file the schedule replays, or
	// zero without one. A checkpoint records it, so a restore that reads
	// the file again fails on a file that has changed since.
	TraceSum [sha256.Size]byte
}

// Len returns how many flows Source yields.
func (s *Schedule) Len() int {
	n := 0
	for _, p := range s.parts {
		n += len(p)
	}
	if s.max > 0 {
		n = min(n, s.max)
	}
	return n
}

// Source streams the schedule from its first flow: the parts merged by
// start, simultaneous flows in part order, cut at Spec.MaxFlows. Each
// call starts over on the same arrays.
func (s *Schedule) Source() Source {
	var src Source
	switch len(s.parts) {
	case 0:
		src = SliceSource(nil)
	case 1:
		src = SliceSource(s.parts[0])
	default:
		srcs := make([]Source, len(s.parts))
		for i, p := range s.parts {
			srcs[i] = SliceSource(p)
		}
		src = MergeSources(srcs...)
	}
	return Limit(src, s.max)
}

// WriteTrace writes the schedule as a versioned JSONL trace: the flows
// Source yields, in its order.
func (s *Schedule) WriteTrace(w io.Writer) error {
	tw := NewTraceWriter(w)
	src := s.Source()
	for f, ok := src.Next(); ok; f, ok = src.Next() {
		tw.Emit(f)
	}
	return tw.Flush()
}

// normalizeShares resolves the per-class volume fractions: explicit
// shares keep their ratio of the claimed mass, zero shares split the
// remainder equally (or everything, when no share is explicit).
func normalizeShares(classes []ClassSpec) []float64 {
	out := make([]float64, len(classes))
	var claimed float64
	zeros := 0
	for _, c := range classes {
		claimed += c.Share
		if c.Share == 0 {
			zeros++
		}
	}
	switch {
	case zeros == 0:
		// All explicit: normalize to 1.
		for i, c := range classes {
			out[i] = c.Share / claimed
		}
	case claimed >= 1 || zeros == len(classes):
		// Zero shares get an equal cut alongside normalized explicit ones.
		for i, c := range classes {
			if c.Share == 0 {
				out[i] = 1 / float64(len(classes))
			} else {
				out[i] = c.Share / claimed * (1 - float64(zeros)/float64(len(classes)))
			}
		}
	default:
		// Explicit shares are absolute; zeros split the remainder.
		rest := (1 - claimed) / float64(zeros)
		for i, c := range classes {
			if c.Share == 0 {
				out[i] = rest
			} else {
				out[i] = c.Share
			}
		}
	}
	return out
}

// window resolves the class's active window in simulation time.
func (c ClassSpec) window(span sim.Time) (begin, end sim.Time) {
	begin = sim.Time(c.Begin * float64(span))
	end = span
	if c.End != 0 {
		end = sim.Time(c.End * float64(span))
	}
	return begin, end
}

// generate produces the class's nominal (pre-warp) schedule for the
// given byte volume. Schedules need not be sorted; Build sorts after
// warping.
// More than budget flows fail with errBudget.
func (c ClassSpec) generate(vol int64, env Env, r *rng.Source, budget int) ([]FlowSpec, error) {
	if vol <= 0 {
		return nil, nil
	}
	if budget < 0 {
		return nil, errBudget
	}
	begin, end := c.window(env.Span)
	switch c.Kind {
	case ClassWeb, ClassBulk:
		name := c.Dist
		if name == "" {
			if c.Kind == ClassWeb {
				name = "lte"
			} else {
				name = "websearch"
			}
		}
		dist, _ := ByName(name) // Validate already vetted the preset
		return drawPoisson(dist, env.NumUEs, vol, begin, end, r, budget)
	case ClassVideo:
		return c.periodicSessions(vol, env, begin, end, defaultVideoSegment, defaultVideoEvery, r, budget)
	case ClassIoT:
		return c.periodicSessions(vol, env, begin, end, defaultIoTSize, defaultIoTEvery, r, budget)
	case ClassVoice:
		return c.periodicSessions(vol, env, begin, end, defaultVoiceSize, defaultVoiceEvery, r, budget)
	case ClassIncast:
		return c.incastBursts(vol, env, begin, end, r, budget)
	}
	return nil, fmt.Errorf("unknown class %q", c.Kind)
}

// periodicSessions lays out per-UE sessions that each emit one
// size-byte unit every cadence tick, phase-offset at random, until the
// class volume is met. This is the shared shape of video segments, IoT
// keepalives and voice spurts — only the unit size and cadence differ.
// A session draws its UE and phase and nothing else, so a pass over a
// copy of the stream counts the flows before the array is made; a
// count over budget fails there.
func (c ClassSpec) periodicSessions(vol int64, env Env, begin, end sim.Time, defSize int64, defEvery sim.Time, r *rng.Source, budget int) ([]FlowSpec, error) {
	size, every := c.Size, c.Every
	if size <= 0 {
		size = defSize
	}
	if every <= 0 {
		every = defEvery
	}
	window := end - begin
	if window <= 0 {
		return nil, nil
	}
	ticks := int64(window / every)
	if ticks < 1 {
		ticks = 1
	}
	// Capped so perSession fits in int64; a session that long already
	// holds more than maxVolume, so the count stays one.
	ticks = min(ticks, math.MaxInt64/size)
	perSession := size * ticks
	sessions := int((vol-1)/perSession + 1) // vol > 0: ceil without overflow
	if sessions < 1 {
		sessions = 1
	}
	n := 0
	count := *r
	var emitted int64
	for s := 0; s < sessions && emitted < vol; s++ {
		count.Intn(env.NumUEs)
		first := begin + sim.Time(count.Float64()*float64(every))
		// The session's ticks in [first, end), cut at the flow that
		// meets the volume.
		k := min(int64(steps(first, end, every)), (vol-emitted-1)/size+1)
		n += int(k)
		emitted += k * size
		if n > budget {
			return nil, errBudget
		}
	}
	flows := make([]FlowSpec, 0, n)
	emitted = 0
	for s := 0; s < sessions && emitted < vol; s++ {
		ue := r.Intn(env.NumUEs)
		phase := sim.Time(r.Float64() * float64(every))
		for t := begin + phase; t < end && emitted < vol; t += every {
			flows = append(flows, FlowSpec{Start: t, UE: ue, Size: size})
			emitted += size
		}
	}
	return flows, nil
}

// steps counts the instants from, from+every, ... before end.
func steps(from, end, every sim.Time) int {
	if from >= end {
		return 0
	}
	return int((end-from-1)/every) + 1
}

// incastBursts schedules periodic synchronized bursts of identical
// short flows, sized so the bursts carry the class volume.
func (c ClassSpec) incastBursts(vol int64, env Env, begin, end sim.Time, r *rng.Source, budget int) ([]FlowSpec, error) {
	size, burst := c.Size, c.Burst
	if size <= 0 {
		size = defaultIncastSize
	}
	if burst <= 0 {
		burst = defaultIncastBurst
	}
	window := end - begin
	if window <= 0 {
		return nil, nil
	}
	bytesPerBurst := size * int64(burst)
	bursts := vol / bytesPerBurst
	if bursts < 1 {
		bursts = 1
	}
	period := window / sim.Time(bursts+1)
	if period <= 0 {
		period = sim.Millisecond
	}
	k := steps(begin+period, end, period)
	if k > budget/burst {
		return nil, errBudget
	}
	flows := make([]FlowSpec, 0, k*burst)
	for t := begin + period; t < end; t += period {
		for i := 0; i < burst; i++ {
			flows = append(flows, FlowSpec{Start: t, UE: r.Intn(env.NumUEs), Size: size, Incast: true})
		}
	}
	return flows, nil
}

// drawPoisson is the volume-matched arrival core shared by the web and
// bulk classes and the Poisson adapter: sizes are drawn until their
// sum reaches the target, arrival instants are placed uniformly over
// the window (a Poisson process conditioned on its count). The count is
// known only once the sizes are drawn, so the array starts at the
// count the distribution's mean predicts, with a margin; drawing past
// budget flows fails.
func drawPoisson(dist *rng.EmpiricalCDF, numUEs int, targetVol int64, begin, end sim.Time, r *rng.Source, budget int) ([]FlowSpec, error) {
	window := end - begin
	if window <= 0 || targetVol <= 0 {
		return nil, nil
	}
	expect := float64(targetVol) / dist.Mean()
	flows := make([]FlowSpec, 0, int(min(expect+4*math.Sqrt(expect)+16, float64(budget))))
	var vol int64
	for vol < targetVol {
		if len(flows) == budget {
			return nil, errBudget
		}
		size := int64(dist.Sample(r))
		if size < 1 {
			size = 1
		}
		// A single flow must not dwarf the whole window's budget, or
		// one tail draw turns the run into a saturation test.
		if size > targetVol/2 && targetVol > 2 {
			size = targetVol / 2
		}
		flows = append(flows, FlowSpec{
			Start: begin + sim.Time(r.Float64()*float64(window)),
			UE:    r.Intn(numUEs),
			Size:  size,
		})
		vol += size
	}
	return flows, nil
}

// PoissonSpec is the paper's baseline workload as a Spec: one web
// class drawing from the named preset at the given load.
func PoissonSpec(dist string, load float64) Spec {
	return Spec{Load: load, Classes: []ClassSpec{{Kind: ClassWeb, Dist: dist}}}
}

// MeanFlowBytes is the mean size of the flows the spec generates: a
// class offers share/mean flows per byte of volume, so the classes'
// means (a web or bulk preset's mean, another kind's unit size)
// combine as their share-weighted harmonic mean. It is 0 for a spec
// that generates nothing, or names an unknown preset.
func (s Spec) MeanFlowBytes() float64 {
	var perByte float64
	for i, share := range normalizeShares(s.Classes) {
		c := s.Classes[i]
		var mean float64
		switch c.Kind {
		case ClassWeb, ClassBulk:
			name := cmp.Or(c.Dist, "lte")
			if c.Kind == ClassBulk {
				name = cmp.Or(c.Dist, "websearch")
			}
			if dist, ok := ByName(name); ok {
				mean = dist.Mean()
			}
		case ClassVideo:
			mean = float64(cmp.Or(c.Size, defaultVideoSegment))
		case ClassIoT:
			mean = float64(cmp.Or(c.Size, defaultIoTSize))
		case ClassVoice:
			mean = float64(cmp.Or(c.Size, defaultVoiceSize))
		case ClassIncast:
			mean = float64(cmp.Or(c.Size, defaultIncastSize))
		}
		if mean <= 0 {
			return 0
		}
		perByte += share / mean
	}
	if perByte == 0 {
		return 0
	}
	return 1 / perByte
}

// ReplaySpec replays a recorded workload trace file.
func ReplaySpec(path string) Spec {
	return Spec{TraceFile: path}
}

// Scenario resolves a named workload scenario preset against a size
// distribution and load. The names are outran-sim's -workload
// vocabulary.
func Scenario(name, dist string, load float64) (Spec, bool) {
	switch name {
	case "", "poisson", "static":
		return PoissonSpec(dist, load), true
	case "diurnal":
		s := PoissonSpec(dist, load)
		s.Envelope = Envelope{Kind: EnvDiurnal}
		return s, true
	case "flashcrowd":
		s := PoissonSpec(dist, load)
		s.Envelope = Envelope{Kind: EnvFlashCrowd}
		return s, true
	case "ramp":
		s := PoissonSpec(dist, load)
		s.Envelope = Envelope{Kind: EnvRamp}
		return s, true
	case "appmix-shift":
		// The size distribution flips mid-run: web browsing gives way
		// to the bulkier mobile-app mix, at constant offered load.
		return Spec{Load: load, Classes: []ClassSpec{
			{Kind: ClassWeb, Dist: dist, End: 0.5},
			{Kind: ClassWeb, Dist: "mirage", Begin: 0.5},
		}}, true
	case "mixed":
		// A plausible busy-cell app mix across all five classes.
		return Spec{Load: load, Classes: []ClassSpec{
			{Kind: ClassWeb, Share: 0.5, Dist: dist},
			{Kind: ClassVideo, Share: 0.3},
			{Kind: ClassBulk, Share: 0.12},
			{Kind: ClassVoice, Share: 0.05},
			{Kind: ClassIoT, Share: 0.03},
		}}, true
	}
	return Spec{}, false
}

// ScenarioNames lists the Scenario vocabulary (for CLI usage strings).
func ScenarioNames() []string {
	return []string{"poisson", "diurnal", "flashcrowd", "ramp", "appmix-shift", "mixed"}
}
